//! A from-scratch HTTP/1.1 server on `std::net::TcpListener`.
//!
//! Deliberately minimal but correct for the API's needs: request-line +
//! header parsing with size limits, Content-Length bodies, one response
//! per connection (`Connection: close`), an acceptor that blocks in
//! `accept`, a bounded pool of reused handler threads, and graceful
//! shutdown.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Maximum request head size (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Maximum request body size.
const MAX_BODY: usize = 1024 * 1024;
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause after an `accept` error that may persist (descriptor or memory
/// exhaustion), so the retry does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// An HTTP status code (the subset the API uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200
    Ok,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 413
    PayloadTooLarge,
    /// 429
    TooManyRequests,
    /// 500
    InternalServerError,
    /// 503
    ServiceUnavailable,
}

impl StatusCode {
    /// Numeric code.
    pub fn code(&self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::MethodNotAllowed => 405,
            StatusCode::PayloadTooLarge => 413,
            StatusCode::TooManyRequests => 429,
            StatusCode::InternalServerError => 500,
            StatusCode::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(&self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::NotFound => "Not Found",
            StatusCode::MethodNotAllowed => "Method Not Allowed",
            StatusCode::PayloadTooLarge => "Payload Too Large",
            StatusCode::TooManyRequests => "Too Many Requests",
            StatusCode::InternalServerError => "Internal Server Error",
            StatusCode::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, upper-case ("GET", "POST").
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw query string (without `?`), possibly empty.
    pub query: String,
    /// Headers, keys lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body bytes.
    pub body: Vec<u8>,
    /// The request's trace, attached by the connection loop after a
    /// successful parse. Handlers clone it into whatever queue job they
    /// enqueue; the connection loop seals it at response write.
    pub trace: Option<obs::reqtrace::TraceHandle>,
}

impl Request {
    /// Header lookup (case-insensitive key).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Content-Type header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// JSON response.
    pub fn json(status: StatusCode, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
        }
    }

    /// HTML response.
    pub fn html(body: impl Into<String>) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// Plain-text response.
    pub fn text(status: StatusCode, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// Serialize to wire format. Responses always carry permissive CORS
    /// headers: the paper's deployment decouples the frontend from the
    /// backend ("frontend is completely decoupled from the backend using
    /// microservices architecture"), so the API must answer cross-origin
    /// browsers.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_trace(None)
    }

    /// Serialize to wire format, adding an `X-Trace-Id` header when the
    /// connection carries a request trace (the id is what `/debug/requests/<id>`
    /// looks up). `None` keeps the exact pre-tracing wire shape.
    pub fn to_bytes_with_trace(&self, trace_id: Option<u64>) -> Vec<u8> {
        let trace_header = match trace_id {
            Some(id) => format!("X-Trace-Id: {id}\r\n"),
            None => String::new(),
        };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\
             {trace_header}Access-Control-Allow-Origin: *\r\n\
             Access-Control-Allow-Methods: GET, POST, OPTIONS\r\n\
             Access-Control-Allow-Headers: Content-Type\r\n\r\n",
            self.status.code(),
            self.status.reason(),
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// An empty 200 for CORS preflight.
    pub fn preflight() -> Response {
        Response::text(StatusCode::Ok, "")
    }
}

/// Why a request failed to parse, split by the status code it maps to:
/// size-limit violations answer 413, everything else 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Head or declared body exceeds a size limit (→ 413).
    TooLarge(String),
    /// The bytes are not a well-formed HTTP/1.x request (→ 400).
    Malformed(String),
}

impl ParseError {
    fn malformed(msg: impl Into<String>) -> ParseError {
        ParseError::Malformed(msg.into())
    }

    /// The status code this error maps to on the wire.
    pub fn status(&self) -> StatusCode {
        match self {
            ParseError::TooLarge(_) => StatusCode::PayloadTooLarge,
            ParseError::Malformed(_) => StatusCode::BadRequest,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooLarge(m) | ParseError::Malformed(m) => write!(f, "{m}"),
        }
    }
}

/// Parse one request from a buffered stream.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let mut line = String::new();
    let mut head_bytes = 0usize;
    reader
        .read_line(&mut line)
        .map_err(|e| ParseError::malformed(format!("read error: {e}")))?;
    head_bytes += line.len();
    let line = line.trim_end();
    if line.is_empty() {
        return Err(ParseError::malformed("empty request line"));
    }
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::malformed("missing http version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::malformed(format!("unsupported version {version}")));
    }
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(ParseError::malformed("bad method"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let mut hline = String::new();
        reader
            .read_line(&mut hline)
            .map_err(|e| ParseError::malformed(format!("header read error: {e}")))?;
        head_bytes += hline.len();
        if head_bytes > MAX_HEAD {
            return Err(ParseError::TooLarge("request head too large".into()));
        }
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        let (k, v) = hline
            .split_once(':')
            .ok_or_else(|| ParseError::malformed("malformed header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }

    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| ParseError::malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge("body too large".into()));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| ParseError::malformed(format!("body read error: {e}")))?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        trace: None,
    })
}

/// A running HTTP server: one acceptor thread blocked in `accept`, and a
/// pool of handler threads that grows only when a connection arrives and
/// no handler is idle. One response per connection.
pub struct HttpServer {
    addr: SocketAddr,
    pool: Arc<Pool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// The acceptor → handler hand-off, and the count that bounds it.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled on every push and on close; only idle handlers wait on it.
    work: Condvar,
    max_connections: usize,
}

struct PoolState {
    /// Accepted, not yet picked up by a handler.
    pending: VecDeque<TcpStream>,
    /// Connections accepted and not yet answered: `pending` plus one per
    /// busy handler.
    active: usize,
    threads: Vec<std::thread::JoinHandle<()>>,
    closed: bool,
}

impl Pool {
    /// No code that can panic runs under this lock, and every update is
    /// one whole push, pop or count, so a poisoned guard is still valid.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand an accepted connection to a handler, or answer it `503` here
    /// when `max_connections` are already open (or the OS refuses the
    /// thread it needs). `false` once the pool is closed.
    fn dispatch(self: &Arc<Self>, stream: TcpStream, handler: &Arc<Handler>) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        let mut admitted = st.active < self.max_connections;
        // A handler serves one connection at a time, so one more is
        // needed exactly when every existing one is already spoken for;
        // threads ≤ active ≤ `max_connections` follows.
        if admitted && st.active >= st.threads.len() {
            let (pool, handler) = (Arc::clone(self), Arc::clone(handler));
            let spawned = std::thread::Builder::new()
                .name("http-handler".into())
                .spawn(move || pool.handle_until_closed(&*handler));
            match spawned {
                Ok(thread) => {
                    st.threads.push(thread);
                    obs::static_gauge!("http_handler_threads").add(1.0);
                }
                Err(_) => admitted = false,
            }
        }
        if !admitted {
            drop(st);
            reject(&stream);
            return true;
        }
        st.active += 1;
        st.pending.push_back(stream);
        drop(st);
        obs::static_gauge!("http_connections_active").add(1.0);
        self.work.notify_one();
        true
    }

    /// A handler thread: answer pending connections, park when there are
    /// none, return once the pool is closed and drained.
    fn handle_until_closed(&self, handler: &Handler) {
        let mut st = self.lock();
        loop {
            if let Some(stream) = st.pending.pop_front() {
                drop(st);
                handle_connection(&stream, handler);
                obs::static_gauge!("http_connections_active").add(-1.0);
                st = self.lock();
                st.active -= 1;
                // Closed under the lock, after the count: a client that
                // reconnects the moment it reads EOF finds this handler
                // free, so sequential traffic stays on one thread.
                drop(stream);
            } else if st.closed {
                return;
            } else {
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Whether a failed `accept` says nothing about the listener: the
/// connection died in the backlog, or a signal interrupted the call.
fn accept_retryable(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::Interrupted | ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset
    )
}

/// The acceptor thread. It leaves only through a closed pool: any other
/// accept error (`EMFILE`, `ENOMEM`, …) is counted and retried after a
/// pause, so a transient fault never leaves a live process deaf.
fn accept_until_closed(listener: &TcpListener, pool: &Arc<Pool>, handler: &Arc<Handler>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if !pool.dispatch(stream, handler) {
                    return;
                }
            }
            Err(e) if accept_retryable(e.kind()) => {}
            Err(_) => {
                if pool.lock().closed {
                    return;
                }
                obs::static_counter!("http_accept_errors_total").inc();
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// Answer a connection over the bound from the acceptor itself. The
/// socket's send buffer is empty, so this short write cannot block.
fn reject(stream: &TcpStream) {
    obs::static_counter!("http_connections_rejected_total").inc();
    let response = Response::text(
        StatusCode::ServiceUnavailable,
        "connection limit reached, retry",
    );
    let mut writer = stream;
    let _ = writer.write_all(&response.to_bytes());
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `handler` until [`HttpServer::stop`]. At most `max_connections`
    /// connections (at least one) are open at once; the next is answered
    /// `503` by the acceptor.
    pub fn start<F>(addr: &str, max_connections: usize, handler: F) -> std::io::Result<HttpServer>
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::new(Pool {
            state: Mutex::new(PoolState {
                pending: VecDeque::new(),
                active: 0,
                threads: Vec::new(),
                closed: false,
            }),
            work: Condvar::new(),
            max_connections: max_connections.max(1),
        });
        // Registered here so they read 0, not absent, on a healthy server.
        obs::static_counter!("http_connections_rejected_total").add(0);
        obs::static_counter!("http_accept_errors_total").add(0);
        let handler: Arc<Handler> = Arc::new(handler);
        let pool2 = Arc::clone(&pool);
        let acceptor = std::thread::Builder::new()
            .name("http-acceptor".into())
            .spawn(move || accept_until_closed(&listener, &pool2, &handler))?;
        Ok(HttpServer {
            addr: local,
            pool,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, answer every connection already accepted, and
    /// join every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.pool.lock().closed = true;
        self.pool.work.notify_all();
        // The acceptor is blocked in `accept`: one connection to our own
        // port wakes it, and it finds the pool closed. If the connect
        // fails (no descriptor left), the acceptor is failing too and
        // leaves through its error arm; retry until one of the two works.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        while !acceptor.is_finished() && TcpStream::connect(wake).is_err() {
            std::thread::sleep(ACCEPT_BACKOFF);
        }
        let _ = acceptor.join();
        let threads = std::mem::take(&mut self.pool.lock().threads);
        obs::static_gauge!("http_handler_threads").add(-(threads.len() as f64));
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(stream: &TcpStream, handler: &Handler) {
    let start = obs::Clock::now();
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);
    // A trace begins only once the bytes parse as HTTP: unparseable
    // connections have no request lifecycle to attribute.
    let (response, trace) = match parse_request(&mut reader) {
        Ok(mut req) => {
            let trace = obs::reqtrace::begin();
            req.trace = Some(trace.clone());
            // Handler threads are reused, so a panicking handler must
            // cost one response, not a thread and its connection slot.
            let response = std::panic::catch_unwind(AssertUnwindSafe(|| handler(req)))
                .unwrap_or_else(|_| {
                    Response::text(StatusCode::InternalServerError, "handler panicked")
                });
            (response, Some(trace))
        }
        Err(e) => (Response::text(e.status(), format!("bad request: {e}")), None),
    };
    record_request(response.status, start);
    let trace_id = trace.as_ref().map(|t| t.id());
    let mut writer = stream;
    let _ = writer.write_all(&response.to_bytes_with_trace(trace_id));
    if let Some(t) = trace {
        t.record(
            obs::reqtrace::Phase::Respond,
            response.status.code() as u32,
            0,
        );
        obs::reqtrace::complete(&t);
    }
}

/// Per-request telemetry: latency histogram plus a counter per status
/// class. One `static_counter!` per arm so each series keeps a cached
/// handle (the macro binds one handle per call site).
fn record_request(status: StatusCode, start: obs::Stamp) {
    obs::static_histogram!("http_request_ns").observe(start.elapsed_ns());
    match status.code() / 100 {
        2 => obs::static_counter!(r#"http_requests_total{class="2xx"}"#).inc(),
        4 => obs::static_counter!(r#"http_requests_total{class="4xx"}"#).inc(),
        _ => obs::static_counter!(r#"http_requests_total{class="5xx"}"#).inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Barrier;

    impl HttpServer {
        /// Handler threads this server has spawned (they are reused and
        /// never retired) — its own count, not the process-wide gauge
        /// that parallel tests share.
        fn handler_threads(&self) -> usize {
            self.pool.lock().threads.len()
        }
    }

    fn parse(s: &str) -> Result<Request, ParseError> {
        parse_request(&mut Cursor::new(s.as_bytes()))
    }

    #[test]
    fn parses_get() {
        let r = parse("GET /api/health?x=1 HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/api/health");
        assert_eq!(r.query, "x=1");
        assert_eq!(r.header("host"), Some("localhost"));
        assert_eq!(r.header("HOST"), Some("localhost"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body() {
        let body = r#"{"a":1}"#;
        let raw = format!(
            "POST /api/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let r = parse(&raw).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body_str(), body);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nBadHeader\r\n\r\n").is_err());
        assert!(parse("G@T /x HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn size_limit_errors_map_to_413_and_malformed_to_400() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(parse(&raw).unwrap_err().status(), StatusCode::PayloadTooLarge);
        let big_head = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        assert_eq!(
            parse(&big_head).unwrap_err().status(),
            StatusCode::PayloadTooLarge
        );
        assert_eq!(
            parse("GARBAGE\r\n\r\n").unwrap_err().status(),
            StatusCode::BadRequest
        );
    }

    #[test]
    fn truncated_body_is_error() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(parse(raw).is_err());
    }

    #[test]
    fn response_wire_format() {
        let r = Response::json(StatusCode::Ok, r#"{"ok":true}"#);
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Type: application/json\r\n"));
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.ends_with(r#"{"ok":true}"#));
        assert!(!s.contains("X-Trace-Id"), "untraced response grew a trace header: {s}");
    }

    #[test]
    fn traced_response_carries_trace_id_header() {
        let r = Response::json(StatusCode::Ok, r#"{"ok":true}"#);
        let s = String::from_utf8(r.to_bytes_with_trace(Some(42))).unwrap();
        assert!(s.contains("X-Trace-Id: 42\r\n"), "{s}");
        assert!(s.ends_with(r#"{"ok":true}"#));
    }

    #[test]
    fn connection_attaches_trace_and_completes_it() {
        let server = HttpServer::start("127.0.0.1:0", 4, |req| {
            let trace = req.trace.as_ref().expect("trace attached to parsed request");
            trace.record(obs::reqtrace::Phase::Enqueue, 1, 0);
            Response::text(StatusCode::Ok, "ok")
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /traced HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let id: u64 = buf
            .lines()
            .find_map(|l| l.strip_prefix("X-Trace-Id: "))
            .expect("X-Trace-Id header present")
            .trim()
            .parse()
            .expect("numeric trace id");
        // The completed trace is retrievable and ends with Respond(200).
        let t = obs::reqtrace::find(id).expect("trace retained after completion");
        let phases = t.phases();
        assert_eq!(phases.first().map(|p| p.phase), Some(obs::reqtrace::Phase::Accept));
        assert!(phases.iter().any(|p| p.phase == obs::reqtrace::Phase::Enqueue));
        let last = phases.last().expect("non-empty trace");
        assert_eq!(last.phase, obs::reqtrace::Phase::Respond);
        assert_eq!(last.a, 200);
        server.stop();
    }

    #[test]
    fn server_roundtrip() {
        let server = HttpServer::start("127.0.0.1:0", 4, |req| {
            Response::text(StatusCode::Ok, format!("echo {}", req.path))
        })
        .unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("200 OK"));
        assert!(buf.ends_with("echo /ping"));
        server.stop();
    }

    /// One `GET path` on its own connection, read to EOF. A reset after
    /// the response (the acceptor's `503` does not read the request
    /// first) still returns what arrived.
    fn fetch_path(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        String::from_utf8(buf).unwrap()
    }

    fn fetch(addr: SocketAddr) -> String {
        fetch_path(addr, "/")
    }

    fn ok(_req: Request) -> Response {
        Response::text(StatusCode::Ok, "ok")
    }

    /// A handler that reports each entry on the returned receiver, then
    /// blocks until the returned sender is dropped.
    fn held() -> (impl Fn(Request) -> Response + Send + Sync, Receiver<()>, Sender<()>) {
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let handler = move |req| {
            entered_tx.send(()).unwrap();
            let _ = release_rx.lock().unwrap().recv();
            ok(req)
        };
        (handler, entered, release)
    }

    #[test]
    fn server_handles_concurrent_connections() {
        // All eight handlers must be inside the barrier at once for any
        // of them to answer.
        let barrier = Barrier::new(8);
        let server = HttpServer::start("127.0.0.1:0", 8, move |req| {
            barrier.wait();
            ok(req)
        })
        .unwrap();
        let addr = server.addr();
        let clients: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || fetch(addr)))
            .collect();
        for c in clients {
            assert!(c.join().unwrap().contains("200 OK"));
        }
        assert_eq!(server.handler_threads(), 8);
        server.stop();
    }

    #[test]
    fn sequential_requests_reuse_one_handler_thread() {
        let server = HttpServer::start("127.0.0.1:0", 4, ok).unwrap();
        for _ in 0..200 {
            assert!(fetch(server.addr()).contains("200 OK"));
        }
        assert_eq!(server.handler_threads(), 1);
        server.stop();
    }

    #[test]
    fn connections_over_the_bound_get_503_from_the_acceptor() {
        let (handler, entered, release) = held();
        let server = HttpServer::start("127.0.0.1:0", 2, handler).unwrap();
        let addr = server.addr();
        let rejected = obs::metrics::counter("http_connections_rejected_total");
        let before = rejected.get();
        let held_clients: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || fetch(addr)))
            .collect();
        entered.recv().unwrap();
        entered.recv().unwrap();

        // The third connection: a complete 503, written by the acceptor.
        let third = fetch(addr);
        let (head, body) = third.split_once("\r\n\r\n").expect("complete head");
        assert!(head.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{third}");
        assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())), "{third}");
        assert!(body.contains("connection limit"), "{third}");
        assert_eq!(rejected.get(), before + 1);

        // A flood of 4× the bound is all refused and costs no thread.
        let flood: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || fetch(addr)))
            .collect();
        for c in flood {
            assert!(c.join().unwrap().starts_with("HTTP/1.1 503 "));
        }
        assert_eq!(rejected.get(), before + 9);
        assert_eq!(server.handler_threads(), 2);

        drop(release);
        for c in held_clients {
            assert!(c.join().unwrap().contains("200 OK"));
        }
        assert!(fetch(addr).contains("200 OK"), "server answers after the flood");
        assert_eq!(server.handler_threads(), 2);
        server.stop();
    }

    #[test]
    fn panicking_handler_answers_500_and_keeps_its_thread() {
        let server = HttpServer::start("127.0.0.1:0", 1, |req: Request| {
            assert_ne!(req.path, "/boom", "handler panic under test");
            ok(req)
        })
        .unwrap();
        let buf = fetch_path(server.addr(), "/boom");
        assert!(buf.starts_with("HTTP/1.1 500 "), "{buf}");
        // The one connection slot and the one thread both survived.
        assert!(fetch(server.addr()).contains("200 OK"));
        assert_eq!(server.handler_threads(), 1);
        server.stop();
    }

    #[test]
    fn accept_errors_split_into_retry_now_and_back_off() {
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
        ] {
            assert!(accept_retryable(kind), "{kind:?}");
        }
        // EMFILE and ENOMEM can persist: counted, paced, retried.
        for errno in [24, 12] {
            let kind = std::io::Error::from_raw_os_error(errno).kind();
            assert!(!accept_retryable(kind), "errno {errno}: {kind:?}");
        }
    }

    #[test]
    fn stop_on_an_idle_server_returns() {
        // Bound to the unspecified address, so the wake-up connection has
        // to be redirected to loopback.
        let server = HttpServer::start("0.0.0.0:0", 4, ok).unwrap();
        let (done_tx, done) = channel();
        let stopper = std::thread::spawn(move || {
            server.stop();
            done_tx.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(20))
            .expect("stop() wakes the blocked accept");
        stopper.join().unwrap();
    }

    #[test]
    fn stop_delivers_the_in_flight_response() {
        let (handler, entered, release) = held();
        let server = HttpServer::start("127.0.0.1:0", 4, handler).unwrap();
        let addr = server.addr();
        let client = std::thread::spawn(move || fetch(addr));
        entered.recv().unwrap();
        let stopper = std::thread::spawn(move || server.stop());
        drop(release);
        stopper.join().unwrap();
        assert!(client.join().unwrap().ends_with("ok"));
    }

    #[test]
    fn drop_without_stop_joins_everything() {
        let token = Arc::new(());
        let held = Arc::clone(&token);
        let server = HttpServer::start("127.0.0.1:0", 4, move |req| {
            let _held = &held;
            ok(req)
        })
        .unwrap();
        assert!(fetch(server.addr()).contains("200 OK"));
        drop(server);
        // Acceptor and handler each held the closure; both are gone.
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn malformed_request_gets_400_not_hang() {
        let server = HttpServer::start("127.0.0.1:0", 4, ok).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("400"), "{buf}");
        server.stop();
    }
}
