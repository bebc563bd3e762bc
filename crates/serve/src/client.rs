//! The crate's one HTTP client: [`Client`], plus the client-side framing
//! it runs on (request writing, response reading).
//!
//! Response heads go through the same bounded line reader as request
//! heads ([`crate::http`]), so a misbehaving server cannot balloon a
//! client's memory with an endless status or header line either.

use crate::http::{read_head_line, HttpError};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One request over a fresh [`Client`], for tests and one-shot checks;
/// returns `(status, body)`. Anything issuing sequential requests should
/// hold a [`Client`] instead.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let resp = Client::new(addr).request(method, path, body)?;
    Ok((resp.status, resp.body))
}

/// One parsed HTTP response, headers the serving stack cares about
/// lifted out of the head.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Length`-framed body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds when the server shed load (429).
    pub retry_after: Option<u64>,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
    /// The `X-Gmr-Trace` context the request was served under, verbatim
    /// (`trace-span`, 16 hex digits each) — what `gmr-serve request -v`
    /// prints so a user can grep the journals for their own request.
    pub trace: Option<String>,
}

/// A blocking keep-alive client: one TCP connection reused across
/// sequential requests, reconnecting when the server closes it. It is the
/// only client in the crate: `gmr-serve request`, the gateway (one client
/// per worker and backend slot), the supervisor's health probe and the
/// bench harnesses all drive it — connecting per call would cost a
/// handshake round-trip per request and flood the accept queue with
/// one-shot connections. Its rules, pinned by fault-injection tests:
///
/// * A transport error on a *reused* connection (the server idle-closed
///   it, or restarted) is retried once on a fresh socket. On a fresh
///   connection it is the caller's error.
/// * A `408` on a reused connection is the server's idle-close notice
///   that raced the write, never an answer to this request: it is
///   replayed on a fresh socket. A `408` on a fresh connection is the
///   answer, and is returned.
/// * With a timeout ([`Client::with_timeout`]), connecting and every
///   socket read and write are bounded by it, so a stalled server is an
///   error rather than a hang.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Option<Duration>,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` with no timeout; connects lazily on first
    /// request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: None,
            conn: None,
        }
    }

    /// A client for `addr` whose connects, reads and writes each give up
    /// after `timeout`.
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            timeout: Some(timeout),
            ..Client::new(addr)
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a live connection is currently held (test/introspection).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Issue one request, reusing the held connection when possible.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request_traced(method, path, body, None)
    }

    /// [`Client::request`] carrying an `X-Gmr-Trace` header: the gateway
    /// propagates its hop context downstream with this.
    pub fn request_traced(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<&str>,
    ) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.exchange(method, path, body, trace) {
            Ok(resp) if reused && resp.status == 408 => {
                self.conn = None;
                self.exchange(method, path, body, trace)
            }
            Err(_) if reused => self.exchange(method, path, body, trace),
            r => r,
        }
    }

    /// One write-then-read on the held connection (connecting first if
    /// none is held). The connection is dropped on any error and on
    /// `Connection: close`.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<&str>,
    ) -> io::Result<Response> {
        let r = self.connect().and_then(|conn| {
            write_request_traced(&mut conn.get_ref(), method, path, body, false, trace)?;
            read_response_full(conn)
        });
        if !matches!(&r, Ok(resp) if !resp.close) {
            self.conn = None;
        }
        r
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = match self.timeout {
                Some(t) => TcpStream::connect_timeout(&self.addr, t)?,
                None => TcpStream::connect(self.addr)?,
            };
            stream.set_nodelay(true)?;
            stream.set_read_timeout(self.timeout)?;
            stream.set_write_timeout(self.timeout)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }
}

/// Write one request on an open connection (keep-alive unless `close`).
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    write_request_traced(stream, method, path, body, close, None)
}

/// [`write_request`] carrying an `X-Gmr-Trace` header.
pub fn write_request_traced(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
    trace: Option<&str>,
) -> io::Result<()> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: gmr-serve\r\nContent-Length: {}\r\n",
        body.len()
    );
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

/// Read one `Content-Length`-framed response; returns `(status, body)`.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, Vec<u8>)> {
    read_response_full(reader).map(|r| (r.status, r.body))
}

/// Read one response, keeping the headers the cluster path needs
/// (`Retry-After` for 429 propagation, `Connection` for pool management).
pub fn read_response_full(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut head = 0usize;
    let mut buf = Vec::new();
    let mut next_line = |reader: &mut _| -> io::Result<Option<String>> {
        match read_head_line(reader, &mut head, &mut buf) {
            Ok(line) => Ok(line.map(str::to_string)),
            Err(HttpError::Io(e)) => Err(e),
            Err(HttpError::Malformed(_)) => {
                Err(io::Error::new(ErrorKind::InvalidData, "bad response head"))
            }
        }
    };
    let Some(line) = next_line(reader)? else {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    };
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    let mut close = false;
    let mut trace = None;
    loop {
        let Some(line) = next_line(reader)? else {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        };
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            let (k, v) = (k.trim(), v.trim());
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v
                    .parse()
                    .map_err(|_| io::Error::new(ErrorKind::InvalidData, "bad content-length"))?;
            } else if k.eq_ignore_ascii_case("retry-after") {
                retry_after = v.parse().ok();
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            } else if k.eq_ignore_ascii_case(crate::trace::TRACE_HEADER) {
                trace = Some(v.to_string());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        body,
        retry_after,
        close,
        trace,
    })
}
