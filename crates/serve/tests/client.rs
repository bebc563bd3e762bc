//! Fault injection at the crate's one HTTP client.
//!
//! [`Client`] carries the reuse and retry rules the gateway's backend
//! pool depends on; each test scripts a hand-rolled server into one fault
//! and pins the client's answer to it:
//!
//! * a reused connection the server closed gets one retry on a fresh
//!   socket;
//! * a `408` on a reused connection is replayed, a `408` on a fresh one
//!   is returned;
//! * a reset, or a response cut short, on a fresh connection is an
//!   error, with no retry;
//! * a stalled server is an error within the client's timeout.

use gmr_serve::batch::Tables;
use gmr_serve::http::read_request;
use gmr_serve::server::Client;
use gmr_serve::{ModelRegistry, Server, ServerConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Bind a loopback listener and run `script` on it in a thread; the
/// counter it is handed counts accepted connections.
fn scripted(
    script: impl FnOnce(&dyn Fn() -> TcpStream) + Send + 'static,
) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    thread::spawn(move || {
        let accept = || {
            let (stream, _) = listener.accept().unwrap();
            count.fetch_add(1, Ordering::SeqCst);
            stream
        };
        script(&accept);
    });
    (addr, accepted)
}

/// Read one request off `stream` (which must send one).
fn read_one(stream: &TcpStream) {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    read_request(&mut reader)
        .expect("well-formed request")
        .expect("a request, not EOF");
}

/// Answer with `status` and `body`, optionally announcing the close.
fn respond(mut stream: &TcpStream, status: u16, body: &str, close: bool) {
    let close = if close { "Connection: close\r\n" } else { "" };
    let head = format!(
        "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{close}\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
}

#[test]
fn reused_connection_closed_by_the_server_is_retried_once_fresh() {
    let (addr, accepted) = scripted(|accept| {
        let first = accept();
        read_one(&first);
        respond(&first, 200, "first", false);
        drop(first); // closes a connection the client believes is alive
        let second = accept();
        read_one(&second);
        respond(&second, 200, "second", false);
        thread::sleep(Duration::from_secs(1));
    });
    let mut client = Client::new(addr);
    assert_eq!(
        client.request("GET", "/healthz", b"").unwrap().body,
        b"first"
    );
    assert!(client.is_connected());
    thread::sleep(Duration::from_millis(100));
    let resp = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"second"[..]));
    assert_eq!(accepted.load(Ordering::SeqCst), 2);
}

#[test]
fn a_408_on_a_reused_connection_is_replayed() {
    let (addr, accepted) = scripted(|accept| {
        let first = accept();
        read_one(&first);
        respond(&first, 200, "first", false);
        // The idle-close notice, racing the client's next request.
        read_one(&first);
        respond(&first, 408, r#"{"error": "idle timeout"}"#, true);
        drop(first);
        let second = accept();
        read_one(&second);
        respond(&second, 200, "replayed", false);
        thread::sleep(Duration::from_secs(1));
    });
    let mut client = Client::new(addr);
    assert_eq!(client.request("GET", "/healthz", b"").unwrap().status, 200);
    let resp = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"replayed"[..]));
    assert_eq!(accepted.load(Ordering::SeqCst), 2);
}

#[test]
fn a_408_on_a_fresh_connection_is_the_answer() {
    let (addr, accepted) = scripted(|accept| {
        let only = accept();
        read_one(&only);
        respond(&only, 408, r#"{"error": "request timeout"}"#, true);
        thread::sleep(Duration::from_secs(1));
    });
    let resp = Client::new(addr).request("GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 408);
    thread::sleep(Duration::from_millis(100));
    assert_eq!(accepted.load(Ordering::SeqCst), 1, "no replay");
}

#[test]
fn a_reset_on_a_fresh_connection_is_an_error_without_retry() {
    let (addr, accepted) = scripted(|accept| {
        let only = accept();
        // Closing with the request still unread makes the kernel answer
        // with a reset rather than an orderly close.
        thread::sleep(Duration::from_millis(100));
        drop(only);
        thread::sleep(Duration::from_secs(1));
    });
    let r = Client::new(addr).request("POST", "/simulate", b"{}");
    assert!(r.is_err(), "{r:?}");
    thread::sleep(Duration::from_millis(100));
    assert_eq!(accepted.load(Ordering::SeqCst), 1, "no retry");
}

#[test]
fn a_response_cut_short_is_an_error() {
    let (addr, accepted) = scripted(|accept| {
        let mut only = accept();
        read_one(&only);
        // Promise ten body bytes, send three, hang up.
        let cut = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        only.write_all(cut.as_bytes()).unwrap();
        drop(only);
        thread::sleep(Duration::from_secs(1));
    });
    let mut client = Client::new(addr);
    let r = client.request("GET", "/healthz", b"");
    assert!(r.is_err(), "{r:?}");
    assert!(!client.is_connected(), "a broken connection is not kept");
    thread::sleep(Duration::from_millis(100));
    assert_eq!(accepted.load(Ordering::SeqCst), 1, "no retry");
}

#[test]
fn a_stalled_server_is_an_error_within_the_timeout() {
    let (addr, _) = scripted(|accept| {
        let only = accept();
        read_one(&only);
        thread::sleep(Duration::from_secs(5)); // never answers
    });
    let timeout = Duration::from_millis(200);
    let t0 = Instant::now();
    let r = Client::with_timeout(addr, timeout).request("GET", "/healthz", b"");
    let took = t0.elapsed();
    assert!(r.is_err(), "{r:?}");
    // Socket timeouts tick in scheduler jiffies, so allow a little early.
    assert!(took >= timeout / 2, "gave up before timing out: {took:?}");
    assert!(
        took < timeout * 4,
        "a stall must cost about the timeout: {took:?}"
    );
}

/// The live version of the reused-`408` race: a request sent after the
/// server's idle budget ran out gets its own answer, not the server's
/// `408 {"error": "idle timeout"}`.
#[test]
fn a_request_after_the_servers_idle_close_gets_its_own_answer() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(50),
        max_idle_reads: 2,
        ..ServerConfig::default()
    };
    let handle = Server::new(config, ModelRegistry::new(), Tables::new())
        .start()
        .unwrap();
    let mut client = Client::new(handle.addr());
    assert_eq!(client.request("GET", "/healthz", b"").unwrap().status, 200);
    thread::sleep(Duration::from_millis(400));
    let resp = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    handle.shutdown();
}
