//! A deliberately small HTTP/1.1 implementation on `std::io`.
//!
//! The build environment has no crates.io access, so the crate speaks
//! the protocol subset its endpoints need and nothing more: request-line,
//! headers and `Content-Length`-framed bodies in; status-line, headers
//! and `Content-Length`-framed bodies out; `keep-alive` connection reuse.
//! No chunked transfer encoding, no continuation lines, no pipelining
//! guarantees beyond strict request/response alternation — clients that
//! need more are out of scope for a model-inference sidecar. This module
//! is the server side; the client side is [`crate::client`], which reads
//! response heads through the same line reader.
//!
//! Size limits are enforced while *reading*: each head line is read
//! through [`Read::take`], so an endless line costs at most
//! [`MAX_HEAD_BYTES`] + 1 bytes before it is refused, and a declared
//! `Content-Length` above [`MAX_BODY_BYTES`] is refused before any body
//! byte is read. Every malformed input — non-UTF-8 head bytes and
//! conflicting `Content-Length` headers included — is an
//! [`HttpError::Malformed`] the caller maps to `400` rather than a
//! dropped connection.

use std::io::{self, BufRead, Read, Write};

/// Maximum accepted header block (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body, bytes. Generous enough for a full
/// multi-year inline forcing table (~3000 rows × 10 floats ≈ 600 KB).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure (including read timeouts, surfaced as the
    /// underlying `WouldBlock`/`TimedOut` error).
    Io(io::Error),
    /// Syntactically invalid or over-limit request; the message is safe to
    /// echo to the client in a `400` body.
    Malformed(&'static str),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, uppercased as received (`GET`, `POST`…).
    pub method: String,
    /// Request target path (query string retained verbatim).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value under `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body parsed as JSON; `Err` carries the message a `400`
    /// answers with.
    pub fn json(&self) -> Result<gmr_json::Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8")?;
        gmr_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Read one head line, through its `\n`, into `buf` and return it with
/// the line ending trimmed; `Ok(None)` at EOF before any byte. The line
/// is charged to `head`, and at most the bytes left under
/// [`MAX_HEAD_BYTES`] plus one are read, so an over-long line is refused
/// without being buffered whole.
pub(crate) fn read_head_line<'b>(
    stream: &mut impl BufRead,
    head: &mut usize,
    buf: &'b mut Vec<u8>,
) -> Result<Option<&'b str>, HttpError> {
    buf.clear();
    let room = (MAX_HEAD_BYTES + 1).saturating_sub(*head) as u64;
    let n = Read::take(&mut *stream, room).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    *head += n;
    if *head > MAX_HEAD_BYTES {
        return Err(HttpError::Malformed("request head too large"));
    }
    let line =
        std::str::from_utf8(buf).map_err(|_| HttpError::Malformed("request head is not UTF-8"))?;
    Ok(Some(line.trim_end_matches(['\r', '\n'])))
}

/// Read one request from a buffered stream. `Ok(None)` means the client
/// closed the connection cleanly between requests (normal keep-alive
/// termination).
pub fn read_request(stream: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut head = 0usize;
    let mut line = Vec::new();
    // Request line; tolerate leading blank lines (robust clients send them).
    let request_line = loop {
        match read_head_line(stream, &mut head, &mut line)? {
            None => return Ok(None),
            Some("") => continue,
            Some(t) => break t.to_string(),
        }
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if parts.next().is_none() => (m, p, v),
        _ => return Err(HttpError::Malformed("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let Some(t) = read_head_line(stream, &mut head, &mut line)? else {
            return Err(HttpError::Malformed("connection closed mid-headers"));
        };
        if t.is_empty() {
            break;
        }
        let Some((name, value)) = t.split_once(':') else {
            return Err(HttpError::Malformed("malformed header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let n = value
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if n > MAX_BODY_BYTES {
                return Err(HttpError::Malformed("body too large"));
            }
            // RFC 9112 §6.3: differing lengths make the framing ambiguous.
            if content_length.is_some_and(|c| c != n) {
                return Err(HttpError::Malformed("conflicting content-length"));
            }
            content_length = Some(n);
        }
        if name == "transfer-encoding" {
            return Err(HttpError::Malformed("chunked bodies not supported"));
        }
        headers.push((name, value));
    }

    let mut body = vec![0u8; content_length.unwrap_or(0)];
    if !body.is_empty() {
        stream.read_exact(&mut body)?;
    }
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one `Content-Length`-framed response. `close` adds
/// `Connection: close`; otherwise the connection stays reusable.
pub fn write_response(
    stream: &mut impl Write,
    code: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    write_response_traced(stream, code, content_type, body, close, None, None)
}

/// [`write_response`] with an explicit `Retry-After` value (the gateway
/// relays a backend's retry hint verbatim; `None` keeps the default, 1 s
/// on any 429) and an optional `X-Gmr-Trace` echo: the server and gateway
/// return the trace context they served under, so a client can grep the
/// journals for its own request.
pub fn write_response_traced(
    stream: &mut impl Write,
    code: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
    retry_after: Option<u64>,
    trace: Option<&str>,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_text(code),
        body.len()
    );
    match (retry_after, code) {
        (Some(secs), _) => head.push_str(&format!("Retry-After: {secs}\r\n")),
        // Shed load explicitly: tell well-behaved clients when to retry.
        (None, 429) => head.push_str("Retry-After: 1\r\n"),
        _ => {}
    }
    if let Some(t) = trace {
        head.push_str(&format!("{}: {t}\r\n", crate::trace::TRACE_HEADER));
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Convenience: a JSON error body `{"error": "..."}`.
pub fn error_body(msg: &str) -> Vec<u8> {
    let mut o = String::from("{\"error\": ");
    gmr_json::push_escaped(&mut o, msg);
    o.push_str("}\n");
    o.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let raw = b"POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
        // Second request on the same connection.
        let req2 = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req2.method, "GET");
        assert_eq!(req2.path, "/healthz");
        assert!(req2.body.is_empty());
        // Clean EOF afterwards.
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn rejects_oversized_and_malformed() {
        let mut r = BufReader::new(&b"GARBAGE\r\n\r\n"[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(HttpError::Malformed("malformed request line"))
        ));
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        let mut r = BufReader::new(huge.as_bytes());
        assert!(matches!(read_request(&mut r), Err(HttpError::Malformed(_))));
        let mut r = BufReader::new(&b"GET / HTTP/2\r\n\r\n"[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(HttpError::Malformed("unsupported HTTP version"))
        ));
    }

    /// An endless request line is refused after at most
    /// `MAX_HEAD_BYTES + 1` bytes, not buffered whole.
    #[test]
    fn endless_head_line_reads_at_most_the_head_limit() {
        let line = vec![b'A'; 4 << 20];
        let mut r = &line[..];
        assert!(matches!(
            read_request(&mut r),
            Err(HttpError::Malformed("request head too large"))
        ));
        let consumed = line.len() - r.len();
        assert!(
            consumed <= MAX_HEAD_BYTES + 1,
            "read {consumed} bytes of an endless line"
        );
    }

    /// Non-UTF-8 head bytes are a malformed request (a `400`), not a
    /// transport error that drops the connection without an answer.
    #[test]
    fn non_utf8_head_is_malformed() {
        for raw in [
            &b"GET /\xff HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-Bad: \xc3\x28\r\n\r\n"[..],
        ] {
            let mut r = raw;
            assert!(
                matches!(read_request(&mut r), Err(HttpError::Malformed(_))),
                "{raw:?}"
            );
        }
    }

    /// Two `Content-Length` headers that disagree are refused (RFC 9112
    /// §6.3); repeating the same value is harmless.
    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let mut r = &b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nabcde"[..];
        assert!(matches!(
            read_request(&mut r),
            Err(HttpError::Malformed("conflicting content-length"))
        ));
        let mut r = &b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab"[..];
        assert_eq!(read_request(&mut r).unwrap().unwrap().body, b"ab");
    }

    #[test]
    fn traced_response_echoes_the_header() {
        let mut out = Vec::new();
        let id = "00000000000000aa-00000000000000bb";
        write_response_traced(
            &mut out,
            200,
            "application/json",
            b"{}",
            false,
            None,
            Some(id),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!("X-Gmr-Trace: {id}\r\n")), "{text}");
    }

    #[test]
    fn response_is_parseable_and_framed() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
