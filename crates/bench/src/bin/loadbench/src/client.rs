//! The load generator's own HTTP/1.1 client: one connection per request
//! (the server closes after one response), `TCP_NODELAY`, a stamp at each
//! phase. `serving::client` is not used, so a change to it cannot change
//! the load.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::stats::now_ns;

/// A request that takes longer than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// When each phase of one exchange ended, on the benchmark clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamps {
    pub start_ns: u64,
    pub connected_ns: u64,
    pub written_ns: u64,
    pub first_byte_ns: u64,
    pub done_ns: u64,
}

#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The server's `X-Trace-Id`, when it sent one.
    pub trace_id: Option<u64>,
    pub body: String,
    pub stamps: Stamps,
}

/// Send one request and read the whole response. Any transport error,
/// timeout or malformed response is an `Err`.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Reply, String> {
    let mut stamps = Stamps {
        start_ns: now_ns(),
        ..Stamps::default()
    };
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    stamps.connected_ns = now_ns();

    let mut wire = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some(b) = body {
        wire.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    wire.push_str("\r\n");
    wire.push_str(body.unwrap_or(""));
    stream
        .write_all(wire.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    stamps.written_ns = now_ns();

    let mut raw = vec![0u8; 4096];
    let first = stream.read(&mut raw).map_err(|e| format!("read: {e}"))?;
    stamps.first_byte_ns = now_ns();
    if first == 0 {
        return Err("connection closed before any response byte".into());
    }
    raw.truncate(first);
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    stamps.done_ns = now_ns();

    let (status, trace_id, body) = parse_response(&raw)?;
    Ok(Reply {
        status,
        trace_id,
        body,
        stamps,
    })
}

/// Split a raw response into status, trace id and body, and check the
/// body against `Content-Length`.
fn parse_response(raw: &[u8]) -> Result<(u16, Option<u64>, String), String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator in response")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let body = std::str::from_utf8(&raw[split + 4..]).map_err(|_| "response body is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(format!("bad status line `{status_line}`"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut trace_id = None;
    let mut content_length = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header `{line}`"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("x-trace-id") {
            trace_id = value.parse().ok();
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse::<usize>().map_err(|_| "bad Content-Length")?);
        }
    }
    match content_length {
        Some(n) if n == body.len() => Ok((status, trace_id, body.to_string())),
        Some(n) => Err(format!(
            "Content-Length {n} but body has {} bytes",
            body.len()
        )),
        None => Err("response without Content-Length".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_trace_id_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Trace-Id: 17\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(raw), Ok((200, Some(17), "{}".to_string())));
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n{}").is_err());
        assert!(parse_response(b"garbage").is_err());
        assert!(parse_response(b"SMTP 200 OK\r\nContent-Length: 0\r\n\r\n").is_err());
    }
}
