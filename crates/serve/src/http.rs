//! A minimal, hand-rolled HTTP/1.1 layer for the localization server.
//!
//! Scope is deliberately small — exactly what an online inference endpoint
//! and its load generator need:
//!
//! * `GET` / `POST` requests with `Content-Length` bodies (no chunked
//!   transfer encoding, no trailers, no upgrades),
//! * keep-alive connection reuse (HTTP/1.1 default, `Connection: close`
//!   honoured),
//! * incremental parsing over a growable buffer, so requests split across
//!   arbitrarily many TCP reads are handled identically to single-read ones,
//! * every failure mode — truncation, oversized heads, lying or absurd
//!   `Content-Length` claims, garbage bytes — surfaces as a typed
//!   [`HttpError`] with an HTTP status mapping. **Nothing in this module
//!   panics on untrusted input** (property-tested in
//!   `tests/proptest_http.rs`).

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on the request/status line plus all headers, in bytes.
/// Heads that exceed this without completing are rejected with
/// [`HttpError::HeadTooLarge`] (HTTP 431).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a declared `Content-Length`. Larger claims are rejected
/// with [`HttpError::BodyTooLarge`] (HTTP 413) *before* any body bytes are
/// buffered, so a lying header cannot balloon memory.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Request methods the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// A fully parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target exactly as sent (path plus optional query).
    pub target: String,
    /// Headers in arrival order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless a `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First header value for `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A fully parsed HTTP response (used by the load generator and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with the given status and body.
    pub fn new(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body,
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers
            .push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First header value for `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Typed HTTP-layer failures. Each maps to a response status via
/// [`HttpError::status`]; connection-level failures (EOF mid-message, IO
/// errors) map to `None` — there is nobody left to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request/status line was not three `SP`-separated parts, or the
    /// head was not valid UTF-8.
    BadStartLine,
    /// Syntactically valid start line with a method this server refuses.
    UnsupportedMethod(String),
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// A header line without a `:`, an empty or malformed header name.
    BadHeader,
    /// Missing, unparsable or self-contradictory `Content-Length`.
    BadContentLength,
    /// `Transfer-Encoding` is not implemented (bodies are `Content-Length`
    /// only).
    UnsupportedTransferEncoding,
    /// The head exceeded [`MAX_HEAD_BYTES`] without terminating.
    HeadTooLarge {
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge {
        /// The declared body size.
        declared: u64,
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// The peer closed the connection in the middle of a message.
    UnexpectedEof {
        /// Which part of the message was being read.
        context: &'static str,
    },
    /// A transport-level read/write failure.
    Io(std::io::ErrorKind),
}

impl HttpError {
    /// The response status this error should be answered with, or `None`
    /// for connection-level failures that cannot be answered.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadStartLine | HttpError::BadHeader | HttpError::BadContentLength => {
                Some(400)
            }
            HttpError::UnsupportedMethod(_) => Some(405),
            HttpError::UnsupportedVersion(_) => Some(505),
            HttpError::UnsupportedTransferEncoding => Some(501),
            HttpError::HeadTooLarge { .. } => Some(431),
            HttpError::BodyTooLarge { .. } => Some(413),
            HttpError::UnexpectedEof { .. } | HttpError::Io(_) => None,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadStartLine => write!(f, "malformed request/status line"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method {m:?}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::BadContentLength => write!(f, "missing or invalid Content-Length"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding is not supported")
            }
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds {limit}-byte limit"
                )
            }
            HttpError::UnexpectedEof { context } => {
                write!(f, "connection closed while reading {context}")
            }
            HttpError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e.kind())
    }
}

/// Outcome of feeding a buffer to an incremental parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Parse<T> {
    /// A complete message was parsed from the first `consumed` bytes.
    Complete {
        /// The parsed message.
        value: T,
        /// Bytes of the buffer the message occupied.
        consumed: usize,
    },
    /// The buffer holds a valid prefix; more bytes are needed.
    Partial,
}

/// Finds the end of the head (`\r\n\r\n`), returning the head without
/// the terminator and the offset *past* the terminator.
fn split_head(buf: &[u8]) -> Option<(&[u8], usize)> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some((buf.get(..end)?, end + 4))
}

/// Splits a head into its start line and header lines, validating UTF-8.
fn head_lines(head: &[u8]) -> Result<Vec<&str>, HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::BadStartLine)?;
    Ok(text.split("\r\n").collect())
}

/// Parses header lines into lower-cased `(name, value)` pairs.
fn parse_headers(lines: &[&str]) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::with_capacity(lines.len());
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"-_!#$%&'*+.^`|~".contains(&b))
        {
            return Err(HttpError::BadHeader);
        }
        headers.push((
            name.to_ascii_lowercase(),
            value.trim_matches(|c| c == ' ' || c == '\t').to_string(),
        ));
    }
    Ok(headers)
}

/// Extracts and validates the body length from parsed headers.
///
/// Repeated `Content-Length` headers must agree; `Transfer-Encoding` is
/// rejected outright; claims beyond [`MAX_BODY_BYTES`] are refused before
/// any body byte is read.
fn body_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let mut declared: Option<u64> = None;
    for (k, v) in headers {
        if k == "content-length" {
            let n: u64 = v.parse().map_err(|_| HttpError::BadContentLength)?;
            if let Some(prev) = declared {
                if prev != n {
                    return Err(HttpError::BadContentLength);
                }
            }
            declared = Some(n);
        }
    }
    let declared = declared.unwrap_or(0);
    if declared > MAX_BODY_BYTES as u64 {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: MAX_BODY_BYTES,
        });
    }
    Ok(declared as usize)
}

/// Whether the connection stays open, from the version default plus any
/// `Connection` header.
fn keep_alive(version: &str, headers: &[(String, String)]) -> bool {
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    match connection.as_deref() {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    }
}

/// Incrementally parses one request from `buf`.
///
/// Returns [`Parse::Partial`] while the buffer holds only a message prefix;
/// the caller appends more bytes and retries. Limits are enforced on the
/// *declared* sizes, so a malicious peer cannot force unbounded buffering by
/// promising a huge body or streaming an unterminated head.
///
/// # Errors
/// Any malformed input yields a typed [`HttpError`]; this function never
/// panics.
pub fn parse_request(buf: &[u8]) -> Result<Parse<Request>, HttpError> {
    let Some((head, head_len)) = split_head(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        return Ok(Parse::Partial);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge {
            limit: MAX_HEAD_BYTES,
        });
    }
    let lines = head_lines(head)?;
    let (start, header_lines) = lines.split_first().ok_or(HttpError::BadStartLine)?;

    let mut parts = start.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadStartLine);
    };
    if method.is_empty() || target.is_empty() {
        return Err(HttpError::BadStartLine);
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(HttpError::UnsupportedMethod(other.to_string())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }

    let headers = parse_headers(header_lines)?;
    let body_len = body_length(&headers)?;
    let total = head_len + body_len;
    let Some(body) = buf.get(head_len..total) else {
        return Ok(Parse::Partial);
    };
    let alive = keep_alive(version, &headers);
    Ok(Parse::Complete {
        value: Request {
            method,
            target: target.to_string(),
            headers,
            body: body.to_vec(),
            keep_alive: alive,
        },
        consumed: total,
    })
}

/// Incrementally parses one response from `buf` (same contract as
/// [`parse_request`]). A missing `Content-Length` is treated as an empty
/// body — every response this stack emits declares its length.
///
/// # Errors
/// Any malformed input yields a typed [`HttpError`]; never panics.
pub fn parse_response(buf: &[u8]) -> Result<Parse<Response>, HttpError> {
    let Some((head, head_len)) = split_head(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        return Ok(Parse::Partial);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge {
            limit: MAX_HEAD_BYTES,
        });
    }
    let lines = head_lines(head)?;
    let (start, header_lines) = lines.split_first().ok_or(HttpError::BadStartLine)?;

    // Status line: `HTTP/1.1 200 OK` (the reason phrase may contain spaces
    // or be absent).
    let mut parts = start.splitn(3, ' ');
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(HttpError::BadStartLine);
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    let status: u16 = code.parse().map_err(|_| HttpError::BadStartLine)?;
    if !(100..=599).contains(&status) {
        return Err(HttpError::BadStartLine);
    }

    let headers = parse_headers(header_lines)?;
    let body_len = body_length(&headers)?;
    let total = head_len + body_len;
    let Some(body) = buf.get(head_len..total) else {
        return Ok(Parse::Partial);
    };
    Ok(Parse::Complete {
        value: Response {
            status,
            headers,
            body: body.to_vec(),
        },
        consumed: total,
    })
}

/// The standard reason phrase for the status codes this stack emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// The wire bytes of `response` (see [`write_response`]).
pub(crate) fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + response.body.len());
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {} {}\r\n",
            response.status,
            status_reason(response.status)
        )
        .as_bytes(),
    );
    for (name, value) in &response.headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("content-length: {}\r\n", response.body.len()).as_bytes());
    if !keep_alive {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
    out
}

/// Serializes `response` to `w`, adding `Content-Length` and — when
/// `keep_alive` is false — `Connection: close`.
///
/// # Errors
/// Propagates transport write failures.
pub fn write_response(
    w: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    w.write_all(&encode_response(response, keep_alive))
}

/// Serializes a request to `w` with `Content-Length` (clients of this stack
/// always use keep-alive; pass `Connection: close` via `headers` to opt
/// out).
///
/// # Errors
/// Propagates transport write failures.
pub fn write_request(
    w: &mut impl Write,
    method: Method,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(format!("{method} {target} HTTP/1.1\r\n").as_bytes());
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    w.write_all(&out)
}

/// A buffered client connection: feeds TCP reads into [`parse_response`]
/// and carries leftover bytes across keep-alive responses. (The server's
/// side of a connection is the crate's session, which reads requests.)
pub struct Conn<S> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read> Conn<S> {
    /// Wraps a stream (typically a `TcpStream` or `&TcpStream`).
    pub fn new(stream: S) -> Self {
        Conn {
            stream,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Reads the next response (EOF before a complete response is always an
    /// error — a response is only ever read after sending a request).
    ///
    /// # Errors
    /// Typed [`HttpError`] on malformed input, truncation or transport
    /// failure.
    pub fn read_response(&mut self) -> Result<Response, HttpError> {
        loop {
            if let Parse::Complete { value, consumed } = parse_response(&self.buf)? {
                self.buf.drain(..consumed);
                return Ok(value);
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(HttpError::UnexpectedEof {
                    context: "a response",
                });
            }
            let read = chunk
                .get(..n)
                .ok_or(HttpError::Io(io::ErrorKind::InvalidData))?;
            self.buf.extend_from_slice(read);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete<T>(parsed: Result<Parse<T>, HttpError>) -> (T, usize) {
        match parsed.expect("parse error") {
            Parse::Complete { value, consumed } => (value, consumed),
            Parse::Partial => panic!("unexpectedly partial"),
        }
    }

    #[test]
    fn parses_a_post_with_body_and_keep_alive_default() {
        let raw = b"POST /v1/localize HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, consumed) = complete(parse_request(raw));
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.target, "/v1/localize");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (req, _) = complete(parse_request(raw));
        assert!(!req.keep_alive);
        let raw10 = b"GET / HTTP/1.0\r\n\r\n";
        let (req10, _) = complete(parse_request(raw10));
        assert!(!req10.keep_alive);
        let raw10ka = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let (req10ka, _) = complete(parse_request(raw10ka));
        assert!(req10ka.keep_alive);
    }

    #[test]
    fn trailing_bytes_are_left_for_the_next_message() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, consumed) = complete(parse_request(raw));
        assert_eq!(req.target, "/a");
        let (req2, _) = complete(parse_request(&raw[consumed..]));
        assert_eq!(req2.target, "/b");
    }

    #[test]
    fn incomplete_prefixes_are_partial() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        for cut in 0..raw.len() {
            assert_eq!(
                parse_request(&raw[..cut]).unwrap(),
                Parse::Partial,
                "prefix of {cut} bytes should be partial"
            );
        }
    }

    #[test]
    fn typed_errors_for_malformed_input() {
        assert_eq!(
            parse_request(b"PATCH / HTTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedMethod("PATCH".into())
        );
        assert_eq!(
            parse_request(b"GET / HTTP/2\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedVersion("HTTP/2".into())
        );
        assert_eq!(
            parse_request(b"GET /\r\n\r\n").unwrap_err(),
            HttpError::BadStartLine
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err(),
            HttpError::BadHeader
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n")
                .unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn oversized_claims_are_rejected_before_buffering() {
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX);
        assert!(matches!(
            parse_request(huge.as_bytes()).unwrap_err(),
            HttpError::BodyTooLarge { .. }
        ));
        let unterminated = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parse_request(&unterminated).unwrap_err(),
            HttpError::HeadTooLarge { .. }
        ));
    }

    #[test]
    fn response_round_trips_through_writer_and_parser() {
        let resp = Response::new(200, b"{\"ok\":true}".to_vec())
            .with_header("content-type", "application/json");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, true).unwrap();
        let (back, consumed) = complete(parse_response(&wire));
        assert_eq!(consumed, wire.len());
        assert_eq!(back.status, 200);
        assert_eq!(back.header("content-type"), Some("application/json"));
        assert_eq!(back.body, resp.body);
    }

    #[test]
    fn request_round_trips_through_writer_and_parser() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            Method::Post,
            "/v1/localize",
            &[("content-type", "application/json")],
            b"{}",
        )
        .unwrap();
        let (back, _) = complete(parse_request(&wire));
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.body, b"{}");
    }

    #[test]
    fn conn_reassembles_split_reads() {
        struct Dribble {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                out[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut raw = Vec::new();
        write_response(&mut raw, &Response::new(200, b"xyz".to_vec()), true).unwrap();
        write_response(&mut raw, &Response::new(404, Vec::new()), false).unwrap();
        let mut conn = Conn::new(Dribble { data: raw, pos: 0 });
        let first = conn.read_response().unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"xyz"[..]));
        let second = conn.read_response().unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.header("connection"), Some("close"));
        assert!(matches!(
            conn.read_response().unwrap_err(),
            HttpError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn conn_reports_truncation_as_unexpected_eof() {
        let raw: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort";
        let mut conn = Conn::new(raw);
        assert!(matches!(
            conn.read_response().unwrap_err(),
            HttpError::UnexpectedEof { .. }
        ));
    }
}
