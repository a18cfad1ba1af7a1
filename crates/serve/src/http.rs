//! A deliberately small HTTP/1.1 subset: enough for a JSON analysis
//! service and its tests, with hard limits instead of configurability.
//!
//! Supported: `Content-Length` bodies, CRLF line endings, keep-alive and
//! pipelined requests. [`try_parse`] is the one request grammar: the
//! server's reactor runs it incrementally over each connection's receive
//! buffer. Not supported (rejected, never misparsed): chunked transfer
//! encoding, multiline headers, requests larger than the fixed caps.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Cap on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// The request target, e.g. `/v1/coplot`.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.1` (vs `HTTP/1.0`).
    pub http11: bool,
}

impl Request {
    /// First header with this name (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open: an explicit
    /// `Connection` header wins, else HTTP/1.1 defaults to keep-alive and
    /// HTTP/1.0 to close.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid or over a size cap — answer 400 and close.
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// Outcome of an incremental parse attempt over a receive buffer.
#[derive(Debug)]
pub enum ParseStatus {
    /// More bytes are needed; nothing was consumed.
    Incomplete,
    /// One full request was parsed from `buf[..consumed]`; the caller
    /// should drain those bytes (later bytes belong to the next pipelined
    /// request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer the request occupied (head + body).
        consumed: usize,
    },
}

/// Try to parse one request from the front of `buf` without blocking.
///
/// The reactor calls it on each connection's receive buffer as bytes
/// arrive; pipelining works because `consumed` marks where the next
/// request starts. Size caps are enforced *incrementally* — an over-long
/// head or an announced over-cap body fails as soon as it is detectable,
/// not after the client finishes sending.
///
/// # Errors
/// [`HttpError::Malformed`] for syntax errors and cap violations.
pub fn try_parse(buf: &[u8]) -> Result<ParseStatus, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        return Ok(ParseStatus::Incomplete);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(malformed(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(malformed(format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported protocol {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
        http11: version == "HTTP/1.1",
    };
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(malformed("chunked transfer encoding is not supported"));
    }
    let content_length = match req.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| malformed(format!("bad content-length {v:?}")))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(malformed(format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }

    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(ParseStatus::Incomplete);
    }
    req.body = buf[body_start..body_start + content_length].to_vec();
    Ok(ParseStatus::Complete {
        request: req,
        consumed: body_start + content_length,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response to serialize back onto the socket.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
    /// Extra headers, e.g. `Retry-After`.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialize to wire bytes. `keep_alive` selects the `Connection`
    /// header; the body always travels with an exact `Content-Length`, so
    /// keep-alive clients know where it ends.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// The reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// What [`http_call`] returns: status, lowercased headers, body.
pub type ClientResponse = (u16, Vec<(String, String)>, String);

/// Minimal blocking HTTP client for tests, `wl-servectl`, and the CI smoke
/// script: one request on a connection of its own (`connection: close`),
/// its response read as [`HttpClient::call`] reads one.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    read_response(&mut stream, &mut Vec::new())
}

/// A blocking keep-alive client: many sequential requests over one
/// connection, each response read by its `Content-Length` (not to EOF).
/// Used by the conformance tests and `wl-loadgen`, where reconnecting per
/// request would dominate the measured latency.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    /// Read-side carry: bytes of the next response already pulled from the
    /// socket while scanning for the current one's head terminator.
    carry: Vec<u8>,
}

impl HttpClient {
    /// Connect to `addr`.
    ///
    /// # Errors
    /// Connection failure.
    pub fn connect(addr: &str) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            carry: Vec::new(),
        })
    }

    /// Apply a read timeout to all subsequent calls.
    ///
    /// # Errors
    /// Socket option failure.
    pub fn set_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Send one request and read its response, leaving the connection open
    /// for the next call.
    ///
    /// # Errors
    /// Socket failure, or a response that cannot be parsed.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: wl\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        read_response(&mut self.stream, &mut self.carry)
    }
}

/// Read one response from `stream`, its body by its `Content-Length`.
/// `carry` holds bytes already read past the previous response and keeps
/// any read past this one, which belong to the next pipelined response.
fn read_response(stream: &mut impl Read, carry: &mut Vec<u8>) -> io::Result<ClientResponse> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut raw = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&raw) {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a full response head",
            ));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let (status, headers) = {
        let head =
            std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line {status_line:?}")))?;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((n, v)) = line.split_once(':') {
                headers.push((n.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        (status, headers)
    };
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .ok_or_else(|| bad("response has no content-length"))?
        .1
        .parse()
        .map_err(|_| bad("bad content-length"))?;
    let body_start = head_end + 4;
    while raw.len() < body_start + content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response-body",
            ));
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    *carry = raw.split_off(body_start + content_length);
    let body = String::from_utf8(raw[body_start..].to_vec())
        .map_err(|_| bad("response body is not UTF-8"))?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One complete request, or its parse error.
    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        match try_parse(bytes)? {
            ParseStatus::Complete { request, .. } => Ok(request),
            ParseStatus::Incomplete => panic!("request should be complete"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /v1/coplot HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/coplot");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nX-Thing: Value\r\n\r\n").unwrap();
        assert_eq!(req.header("x-thing"), Some("Value"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            &b"nonsense\r\n\r\n"[..],
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::Malformed(_))),
                "{:?} should be malformed",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn caps_oversized_bodies() {
        let head = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(head.as_bytes()),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_serializes_with_connection_close() {
        let bytes = Response::json(503, "{}")
            .with_header("retry-after", "1")
            .to_bytes(false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn try_parse_is_incremental_and_pipelines() {
        let full = b"POST /v1/x HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n";
        // Every proper prefix short of the first request is Incomplete.
        for cut in [0, 5, 20, 38, 40] {
            assert!(
                matches!(try_parse(&full[..cut]), Ok(ParseStatus::Incomplete)),
                "cut at {cut}"
            );
        }
        let ParseStatus::Complete { request, consumed } = try_parse(full).unwrap() else {
            panic!("first request should parse");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, b"abc");
        let ParseStatus::Complete { request, consumed: c2 } =
            try_parse(&full[consumed..]).unwrap()
        else {
            panic!("pipelined second request should parse");
        };
        assert_eq!(request.method, "GET");
        assert_eq!(request.target, "/healthz");
        assert_eq!(consumed + c2, full.len());
    }

    #[test]
    fn oversized_head_fails_before_the_terminator_arrives() {
        let mut buf = b"GET /x HTTP/1.1\r\nx-pad: ".to_vec();
        buf.resize(MAX_HEAD_BYTES + 1, b'a');
        assert!(matches!(try_parse(&buf), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn keep_alive_negotiation_follows_http_defaults() {
        let keep = |bytes: &[u8]| parse(bytes).unwrap().wants_keep_alive();
        assert!(keep(b"GET / HTTP/1.1\r\n\r\n"), "1.1 defaults to keep-alive");
        assert!(!keep(b"GET / HTTP/1.0\r\n\r\n"), "1.0 defaults to close");
        assert!(!keep(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n"));
        assert!(keep(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
    }

    #[test]
    fn response_serializes_keep_alive_on_request() {
        let bytes = Response::json(200, "{}").to_bytes(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
    }

    #[test]
    fn keep_alive_client_reads_consecutive_responses() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Answer two requests on the one connection, back to back.
            for body in ["first", "second"] {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    if matches!(try_parse(&buf), Ok(ParseStatus::Complete { .. })) {
                        break;
                    }
                    let n = conn.read(&mut chunk).unwrap();
                    assert!(n > 0, "client closed early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                conn.write_all(&Response::text(200, body).to_bytes(true))
                    .unwrap();
            }
        });
        let mut client = HttpClient::connect(&addr.to_string()).unwrap();
        let (status, _, body) = client.call("GET", "/a", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "first"));
        let (status, _, body) = client.call("GET", "/b", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "second"));
        server.join().unwrap();
    }

    #[test]
    fn client_parses_its_own_format() {
        let bytes = Response::json(200, "{\"ok\":true}").to_bytes(false);
        let (status, headers, body) = read_response(&mut &bytes[..], &mut Vec::new()).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        assert!(headers.iter().any(|(n, v)| n == "content-type" && v == "application/json"));
    }
}
