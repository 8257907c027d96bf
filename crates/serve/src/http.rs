//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! The service speaks just enough HTTP for its four endpoints: one
//! request per connection (`Connection: close` on every response), a
//! request line, lowercased headers, and an optional `Content-Length`
//! body. Header and body sizes are capped so a hostile or confused peer
//! cannot balloon a worker's memory; anything outside the subset is a
//! parse error the server answers with `400`.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head: the request line and headers, counted
/// through the blank line (`\r\n\r\n`) that ends them.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method as sent ("GET", "POST", …).
    pub method: String,
    /// Path component of the request target (query strings unsupported).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read and parse one request from the stream, however its bytes are
/// split into reads.
pub fn read_request<R: Read>(stream: &mut R) -> io::Result<Request> {
    let (mut request, content_length) = read_head(stream)?;
    read_body(stream, &mut request, content_length)?;
    Ok(request)
}

/// Read and parse a request's head. The request's body holds what arrived
/// after the head; [`read_body`] reads the rest of the returned
/// `content-length`.
pub(crate) fn read_head<R: Read>(stream: &mut R) -> io::Result<(Request, usize)> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Where the blank line ending the head could still start: the bytes
    // before it were searched after earlier reads.
    let mut unsearched = 0;
    let split = loop {
        // A head that has not ended yet counts what has arrived.
        let end = find_head_end(&head[unsearched..]).map(|pos| unsearched + pos);
        unsearched = head.len().saturating_sub(3);
        if end.map_or(head.len(), |pos| pos + 4) > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head exceeds cap",
            ));
        }
        if let Some(pos) = end {
            break pos;
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        head.extend_from_slice(&buf[..n]);
    };
    let (head_bytes, rest) = head.split_at(split);
    let rest = &rest[4..]; // skip the \r\n\r\n separator
    let head_text = std::str::from_utf8(head_bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 request head"))?;

    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing path"))?
        .to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // RFC 9112 §6.3: a length is `1*DIGIT`, and repeated headers agree.
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| v.parse::<usize>().ok())
            .flatten()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        if content_length.is_some_and(|m| m != n) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "conflicting content-length",
            ));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body exceeds cap",
        ));
    }

    let request = Request {
        method,
        path,
        headers,
        body: rest.to_vec(),
    };
    Ok((request, content_length))
}

/// Read the rest of a request's body, up to `content_length` bytes.
pub(crate) fn read_body<R: Read>(
    stream: &mut R,
    request: &mut Request,
    content_length: usize,
) -> io::Result<()> {
    let mut buf = [0u8; 512];
    let body = &mut request.body;
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(())
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the standard set.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("content-type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialise and write to the stream (`Connection: close` always).
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason,
            self.body.len()
        );
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        stream.write_all(out.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes the service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Client half: write a request, read the full response.
///
/// Used by the load generator and the integration tests; parses the
/// status line and splits headers from body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send `method path` with optional JSON body and headers, read the reply.
pub fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<ClientResponse> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nhost: wavm3\r\nconnection: close\r\n");
    if !body.is_empty() {
        out.push_str("content-type: application/json\r\n");
        out.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    stream.write_all(out.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = find_head_end(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without head end"))?;
    let head = std::str::from_utf8(&raw[..split])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let body = raw[split + 4..].to_vec();

    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let headers = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}
