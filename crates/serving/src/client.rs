//! A tiny blocking HTTP/1.1 client for tests, examples and the CLI.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client bound to one server address.
#[derive(Debug, Clone, Copy)]
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl HttpClient {
    /// A client for `addr` with a 30 s timeout.
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient {
            addr,
            timeout: Duration::from_secs(30),
        }
    }

    /// `GET path` → `(status, body)`.
    pub fn get(&self, path: &str) -> std::io::Result<(u16, String)> {
        self.request(&format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        ))
    }

    /// `POST path` with a JSON body → `(status, body)`.
    pub fn post_json(&self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request(&format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.addr,
            body.len(),
            body
        ))
    }

    /// `POST path` with a JSON body → `(status, headers, body)`. The
    /// header-exposing variant, for reading `X-Trace-Id` off a response.
    pub fn post_json_with_headers(
        &self,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Vec<(String, String)>, String)> {
        let raw = self.request_raw(&format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.addr,
            body.len(),
            body
        ))?;
        parse_response_with_headers(&raw)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"))
    }

    fn request(&self, raw: &str) -> std::io::Result<(u16, String)> {
        let response = self.request_raw(raw)?;
        parse_response(&response)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"))
    }

    fn request_raw(&self, raw: &str) -> std::io::Result<String> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let mut stream = stream;
        stream.write_all(raw.as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    }
}

/// Split a raw HTTP response into `(status, body)`.
pub fn parse_response(raw: &str) -> Option<(u16, String)> {
    let status: u16 = raw.split(' ').nth(1)?.parse().ok()?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string())?;
    Some((status, body))
}

/// Split a raw HTTP response into `(status, headers, body)`. Header
/// names are lowercased; values keep their wire form.
pub fn parse_response_with_headers(raw: &str) -> Option<(u16, Vec<(String, String)>, String)> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (k, v) = line.split_once(':')?;
            Some((k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Some((status, headers, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpServer, Response, StatusCode};

    #[test]
    fn parse_response_extracts_status_and_body() {
        let raw = "HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nnop";
        assert_eq!(parse_response(raw), Some((404, "nop".to_string())));
        assert_eq!(parse_response("garbage"), None);
    }

    #[test]
    fn parse_response_with_headers_extracts_all_three() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Trace-Id: 42\r\n\r\nok";
        let (status, headers, body) = parse_response_with_headers(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok");
        assert!(headers.contains(&("x-trace-id".to_string(), "42".to_string())));
    }

    #[test]
    fn headers_variant_sees_the_trace_id() {
        let server =
            HttpServer::start("127.0.0.1:0", 4, |_req| Response::text(StatusCode::Ok, "ok")).unwrap();
        let client = HttpClient::new(server.addr());
        let (status, headers, body) = client.post_json_with_headers("/x", "{}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok");
        // The connection loop traces every parsed request, so the
        // header is always present on this path.
        assert!(
            headers.iter().any(|(k, _)| k == "x-trace-id"),
            "{headers:?}"
        );
        server.stop();
    }

    #[test]
    fn client_server_roundtrip() {
        let server = HttpServer::start("127.0.0.1:0", 4, |req| {
            Response::text(StatusCode::Ok, format!("{} {}", req.method, req.body_str()))
        })
        .unwrap();
        let client = HttpClient::new(server.addr());
        let (status, body) = client.post_json("/x", r#"{"a":1}"#).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"POST {"a":1}"#);
        server.stop();
    }
}
