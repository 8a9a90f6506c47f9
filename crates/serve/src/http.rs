//! Minimal HTTP/1.1 request reader and response writer.
//!
//! Implements just enough of RFC 9112 for a scoring service:
//! persistent (keep-alive) connections with `content-length` body
//! framing on both sides, `connection: close` negotiation per RFC 9112
//! §9.6 (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close), and hard
//! caps on line length, header count, and body size so a misbehaving
//! client cannot exhaust memory. Each response declares an exact
//! `content-length`, so a client can issue the next request on the
//! same connection immediately — the request loop lives in
//! `crate::server`.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines accepted per request.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, target, raw body bytes, and the
/// connection persistence the client negotiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path (`/v1/models/svc:predict`).
    pub target: String,
    /// Raw body (empty when no `content-length` was sent).
    pub body: Vec<u8>,
    /// True when the connection must close after this exchange:
    /// the client sent `connection: close`, or spoke HTTP/1.0 without
    /// an explicit `connection: keep-alive`.
    pub close: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request — answer 400.
    Malformed(String),
    /// Declared body exceeds the server's cap — answer 413.
    TooLarge {
        /// The configured body cap in bytes.
        limit: usize,
    },
    /// Socket-level failure (including read timeouts) — drop the
    /// connection; there is no one left to answer.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line (up to CRLF or LF), returning it without the line
/// terminator. Errors if the line exceeds [`MAX_LINE_BYTES`] or the
/// stream ends mid-line.
fn read_line<R: BufRead>(reader: &mut R) -> Result<String, HttpError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        // Scan the BufReader's buffer in bulk rather than pulling one
        // byte per `read` call — header lines almost always sit in a
        // single buffered chunk.
        let (found_newline, used) = {
            let available = match reader.fill_buf() {
                Ok(a) => a,
                Err(e) => return Err(HttpError::Io(e)),
            };
            if available.is_empty() {
                return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&available[..i]);
                    (true, i + 1)
                }
                None => {
                    buf.extend_from_slice(available);
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        // Checked first, so the cap holds however the line was buffered.
        if buf.len() > MAX_LINE_BYTES {
            return Err(HttpError::Malformed("header line too long".into()));
        }
        if found_newline {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return String::from_utf8(buf)
                .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()));
        }
    }
}

/// Reads and parses one HTTP/1.x request from `reader`.
///
/// # Errors
///
/// [`HttpError::Malformed`] for syntax violations (caller answers 400),
/// [`HttpError::TooLarge`] when `content-length` exceeds `max_body`
/// (caller answers 413), and [`HttpError::Io`] for socket failures.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(HttpError::Malformed("bad request line".into())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported protocol version".into()));
    }
    // HTTP/1.0 closes by default; 1.1 and later keep the connection.
    let mut close = version == "HTTP/1.0";

    let mut content_length: Option<usize> = None;
    for i in 0.. {
        if i >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without a colon".into()));
        };
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: `1*DIGIT`, so no sign (which `usize`
            // parsing would accept), and a repeat must not differ. OWS
            // is SP / HTAB only (RFC 9110 §5.6.3), unlike `str::trim`.
            let value = value.trim_matches([' ', '\t']);
            let digits = value.bytes().all(|b| b.is_ascii_digit());
            let parsed = digits
                .then(|| value.parse().ok())
                .flatten()
                .ok_or_else(|| HttpError::Malformed("unparseable content-length".into()))?;
            if content_length.is_some_and(|seen| seen != parsed) {
                return Err(HttpError::Malformed("conflicting content-length headers".into()));
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            // `connection` is a comma-separated option list; only the
            // persistence tokens matter to this server.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
        // Every other header (host, accept, user-agent, ...) is noise
        // for a scoring endpoint.
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::TooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method: method.to_string(), target: target.to_string(), body, close })
}

/// A response ready to be written to the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Value for the `content-type` header.
    pub content_type: &'static str,
    /// When set, emitted as a `retry-after` header (seconds) — used by
    /// the 503 backpressure path.
    pub retry_after: Option<u32>,
    /// When set, emitted as an `x-request-id` header so a client can
    /// correlate its response with the server's access log and
    /// telemetry.
    pub request_id: Option<u64>,
    /// When set, emitted as an `x-model-generation` header: the
    /// registry generation the request was scored against, so clients
    /// can observe hot-reload swaps.
    pub model_generation: Option<u64>,
    /// When true, the response advertises `connection: close` and the
    /// server closes the connection after writing it; otherwise the
    /// response advertises `connection: keep-alive` and the connection
    /// stays open for the next request.
    pub close: bool,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status (keep-alive by default;
    /// the server's connection loop decides when to close).
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            retry_after: None,
            request_id: None,
            model_generation: None,
            close: false,
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            retry_after: None,
            request_id: None,
            model_generation: None,
            close: false,
            body: body.as_bytes().to_vec(),
        }
    }

    /// Serializes the status line, headers, and body into one buffer.
    /// Exact `content-length` framing is what lets a keep-alive client
    /// find the response boundary without waiting for EOF.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 160);
        use std::fmt::Write as _;
        let mut head = String::with_capacity(160);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nconnection: {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            if self.close { "close" } else { "keep-alive" },
            self.content_type,
            self.body.len(),
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "retry-after: {secs}\r\n");
        }
        if let Some(id) = self.request_id {
            let _ = write!(head, "x-request-id: {id}\r\n");
        }
        if let Some(generation) = self.model_generation {
            let _ = write!(head, "x-model-generation: {generation}\r\n");
        }
        head.push_str("\r\n");
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the serialized response to `w` as a single write (one
    /// syscall on an unbuffered socket — the keep-alive hot path).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (including write timeouts).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_bytes())?;
        w.flush()
    }
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").expect("valid");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.body.is_empty());
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_negotiation_follows_rfc9112() {
        // HTTP/1.1: keep-alive unless told otherwise.
        assert!(parse("GET /x HTTP/1.1\r\nconnection: close\r\n\r\n").expect("valid").close);
        assert!(!parse("GET /x HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").expect("valid").close);
        // Comma-separated option lists.
        assert!(parse("GET /x HTTP/1.1\r\nconnection: foo, Close\r\n\r\n").expect("valid").close);
        // HTTP/1.0: close unless the client opts in to keep-alive.
        assert!(parse("GET /x HTTP/1.0\r\nhost: y\r\n\r\n").expect("valid").close);
        assert!(!parse("GET /x HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").expect("valid").close);
    }

    #[test]
    fn keep_alive_requests_parse_back_to_back_from_one_stream() {
        let raw = "POST /a HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi\
                   GET /b HTTP/1.1\r\n\r\n\
                   GET /c HTTP/1.1\r\nconnection: close\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let a = read_request(&mut reader, 1024).expect("first");
        assert_eq!((a.target.as_str(), a.body.as_slice(), a.close), ("/a", b"hi".as_ref(), false));
        let b = read_request(&mut reader, 1024).expect("second");
        assert_eq!((b.target.as_str(), b.close), ("/b", false));
        let c = read_request(&mut reader, 1024).expect("third");
        assert_eq!((c.target.as_str(), c.close), ("/c", true));
        assert!(matches!(read_request(&mut reader, 1024), Err(HttpError::Io(_))), "stream ended");
    }

    #[test]
    fn parses_a_post_with_content_length_body() {
        let req = parse("POST /v1/models/svc:predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .expect("valid");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse("GET /metrics HTTP/1.0\nhost: y\n\n").expect("valid");
        assert_eq!(req.target, "/metrics");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET  /x HTTP/1.1\r\n\r\n",
            "GET nopath HTTP/1.1\r\n\r\n",
            " /x HTTP/1.1\r\n\r\n",
        ] {
            assert!(matches!(parse(bad), Err(HttpError::Malformed(_))), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_bad_content_length_and_headers() {
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // RFC 9112 §6.3: the value is 1*DIGIT, and differing repeats
        // are a 400 rather than last-one-wins.
        for raw in [
            "POST /x HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\ncontent-length: -0\r\n\r\n",
            "POST /x HTTP/1.1\r\ncontent-length: \r\n\r\n",
            "POST /x HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 3\r\n\r\nhello",
            "POST /x HTTP/1.1\r\ncontent-length: 3\r\nContent-Length: 5\r\n\r\nhello",
            // OWS is SP / HTAB only: other whitespace is not trimmed.
            "POST /x HTTP/1.1\r\ncontent-length:\x0c5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\ncontent-length:\x0b5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\ncontent-length:\u{3000}5\r\n\r\nhello",
        ] {
            assert!(matches!(parse(raw), Err(HttpError::Malformed(_))), "{raw:?}");
        }
        let same = parse("POST /x HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\nhello")
            .expect("identical repeats are accepted");
        assert_eq!(same.body, b"hello");
        let ows = parse("POST /x HTTP/1.1\r\ncontent-length:\t5 \t\r\n\r\nhello")
            .expect("SP and HTAB around the value are OWS");
        assert_eq!(ows.body, b"hello");
    }

    #[test]
    fn enforces_the_body_cap_without_reading_the_body() {
        let raw = "POST /x HTTP/1.1\r\ncontent-length: 4096\r\n\r\n";
        match parse(raw) {
            Err(HttpError::TooLarge { limit }) => assert_eq!(limit, 1024),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into()).write_to(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nconnection: keep-alive\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\r\n{\"ok\":true}"
        );
        let mut resp = Response::json(200, "{}".into());
        resp.close = true;
        let text = String::from_utf8(resp.to_bytes()).expect("utf8");
        assert!(text.contains("\r\nconnection: close\r\n"), "got {text:?}");
    }

    #[test]
    fn request_id_header_rides_along_when_set() {
        let mut resp = Response::text(200, "ok\n");
        resp.request_id = Some(42);
        let mut out = Vec::new();
        resp.write_to(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\r\nx-request-id: 42\r\n"), "got {text:?}");
    }

    #[test]
    fn model_generation_header_rides_along_when_set() {
        let mut resp = Response::json(200, "{}".into());
        resp.model_generation = Some(3);
        let text = String::from_utf8(resp.to_bytes()).expect("utf8");
        assert!(text.contains("\r\nx-model-generation: 3\r\n"), "got {text:?}");
        let plain = String::from_utf8(Response::json(200, "{}".into()).to_bytes()).expect("utf8");
        assert!(!plain.contains("x-model-generation"), "absent unless set");
    }

    #[test]
    fn retry_after_header_rides_on_503() {
        let mut resp = Response::json(503, "{}".into());
        resp.retry_after = Some(1);
        let mut out = Vec::new();
        resp.write_to(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("\r\nretry-after: 1\r\n"), "got {text:?}");
    }
}
