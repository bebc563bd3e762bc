//! The connection runtime's time budget, against a live server and a
//! live gateway (both run on the same runtime).
//!
//! The budget is `max_idle_reads × read_timeout`, counted from a
//! request's first byte. A client trickling its head one byte at a time,
//! fast enough that no single read times out, must not hold a worker past
//! it: with one worker, every other client would wait behind the trickle,
//! and so would `shutdown()`.

use gmr_serve::batch::{HostedTable, Tables};
use gmr_serve::http::read_request;
use gmr_serve::server::{http_request, read_response_full, Client};
use gmr_serve::{
    BackendSlot, Gateway, GatewayConfig, ModelArtifact, ModelRegistry, Server, ServerConfig,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const READ_TIMEOUT: Duration = Duration::from_millis(100);
const MAX_IDLE_READS: u32 = 3;
/// Far above the 300 ms budget, far below the 3 s the trickle lasts.
const PROMPT: Duration = Duration::from_millis(1500);

/// A one-worker service on the runtime, and how to drain it.
type Started = (SocketAddr, Box<dyn FnOnce()>);

fn server() -> Started {
    let config = ServerConfig {
        workers: 1,
        read_timeout: READ_TIMEOUT,
        max_idle_reads: MAX_IDLE_READS,
        ..ServerConfig::default()
    };
    let handle = Server::new(config, ModelRegistry::new(), Tables::new())
        .start()
        .unwrap();
    (handle.addr(), Box::new(move || handle.shutdown()))
}

fn gateway() -> Started {
    let config = GatewayConfig {
        workers: 1,
        read_timeout: READ_TIMEOUT,
        max_idle_reads: MAX_IDLE_READS,
        ..GatewayConfig::default()
    };
    let slots = Arc::new(vec![BackendSlot::default()]);
    let handle = Gateway::new(config, slots).start().unwrap();
    (handle.addr(), Box::new(move || handle.shutdown()))
}

/// Send a request head one byte every 50 ms for up to 3 s; return the
/// status the service answered with (`None`: closed without one).
fn trickle(addr: SocketAddr) -> JoinHandle<Option<u16>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    thread::spawn(move || {
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(3) {
            if stream.write_all(b"a").is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(50));
        }
        read_response_full(&mut BufReader::new(stream))
            .ok()
            .map(|r| r.status)
    })
}

fn slow_sender_cannot_hold_the_only_worker(start: fn() -> Started) {
    let (addr, shutdown) = start();
    let slow = trickle(addr);
    thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    let (status, _) = http_request(addr, "GET", "/healthz", b"").unwrap();
    let waited = t0.elapsed();
    assert_eq!(status, 200);
    assert!(
        waited < PROMPT,
        "/healthz waited {waited:?} behind a trickle"
    );
    assert_eq!(slow.join().unwrap(), Some(408), "the trickle is cut off");
    shutdown();
}

fn slow_sender_cannot_stall_shutdown(start: fn() -> Started) {
    let (addr, shutdown) = start();
    let slow = trickle(addr);
    thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    shutdown();
    let took = t0.elapsed();
    assert!(took < PROMPT, "shutdown took {took:?} behind a trickle");
    slow.join().unwrap();
}

#[test]
fn server_slow_sender_cannot_hold_the_only_worker() {
    slow_sender_cannot_hold_the_only_worker(server);
}

#[test]
fn server_slow_sender_cannot_stall_shutdown() {
    slow_sender_cannot_stall_shutdown(server);
}

#[test]
fn gateway_slow_sender_cannot_hold_the_only_worker() {
    slow_sender_cannot_hold_the_only_worker(gateway);
}

#[test]
fn gateway_slow_sender_cannot_stall_shutdown() {
    slow_sender_cannot_stall_shutdown(gateway);
}

/// A request whose pieces arrive with gaps longer than one read timeout
/// (but inside the budget) is still one request, not a 400 for the
/// second half.
#[test]
fn paced_request_within_the_budget_is_served() {
    let (addr, shutdown) = server();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /heal").unwrap();
    thread::sleep(READ_TIMEOUT + Duration::from_millis(50));
    stream
        .write_all(b"thz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let resp = read_response_full(&mut BufReader::new(stream)).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    shutdown();
}

/// The trace id of the context a response echoes.
fn echoed_trace(echo: Option<&str>) -> u64 {
    echo.and_then(|v| v.split_once('-'))
        .and_then(|(trace, _)| gmr_obsv::journal::parse_hex_id(trace))
        .expect("the answer echoes its trace context")
}

/// Every `access` event journaled under `trace`, as `(path, status,
/// batched)`, in journal order. Other tests journal into the same
/// process-global journal, so a test's own requests are told apart by
/// trace id.
fn access_events(trace: u64) -> Vec<(&'static str, u16, bool)> {
    use gmr_obsv::journal::Event;
    let journal = gmr_obsv::global().expect("journal installed").snapshot();
    journal
        .iter()
        .filter_map(|r| match r.event {
            Event::Access {
                trace: t,
                path,
                status,
                batched,
                ..
            } if t == trace => Some((path, status, batched)),
            _ => None,
        })
        .collect()
}

/// Both services journal a malformed request the same way: one `access`
/// event under their own `(malformed)` tag, with the trace id the `400`
/// echoes.
#[test]
fn malformed_requests_are_journaled_by_both_services() {
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    for (start, tag) in [
        (server as fn() -> Started, "(malformed)"),
        (gateway, "gw:(malformed)"),
    ] {
        let (addr, shutdown) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let resp = read_response_full(&mut BufReader::new(stream)).unwrap();
        assert_eq!(resp.status, 400);
        shutdown();
        let trace = echoed_trace(resp.trace.as_deref());
        assert_eq!(access_events(trace), [(tag, 400, false)]);
    }
}

/// A served request is journaled once per service it passes through: a
/// `/simulate` once by a backend hit directly, and once by the gateway and
/// once by the backend it relayed to. A `/sweep` runs inline rather than
/// in a coalesced `/simulate` batch, so its `access` event reads
/// `batched: false` and `serve.batch_size`, the histogram of `/simulate`
/// batch widths, does not count it.
#[test]
fn served_requests_are_journaled_once_per_service() {
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    let mut registry = ModelRegistry::new();
    registry.insert(ModelArtifact::builtin_manual()).unwrap();
    let mut tables = Tables::new();
    let rows = vec![[1.0; gmr_hydro::NUM_VARS]; 30];
    tables.insert("t", HostedTable::Single(rows));
    let backend = Server::new(ServerConfig::default(), registry, tables)
        .start()
        .unwrap();
    let slots = Arc::new(vec![BackendSlot::default()]);
    slots[0].set_addr(backend.addr());
    let gateway = Gateway::new(GatewayConfig::default(), slots)
        .start()
        .unwrap();
    let post = |addr, path, body: &[u8]| {
        let resp = Client::new(addr).request("POST", path, body).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        echoed_trace(resp.trace.as_deref())
    };
    let body = br#"{"model": "table5-manual", "forcings_ref": "t", "mode": "summary"}"#;
    let direct = post(backend.addr(), "/simulate", body);
    let proxied = post(gateway.addr(), "/simulate", body);
    let spec = br#"{"schema": "gmr-scenario/v1", "name": "dry", "seed": 5,
        "topology": {"kind": "braided", "stations": 12}, "years": 1, "spread": 0.3}"#;
    post(backend.addr(), "/scenarios", spec);
    let batches = || {
        let metrics = gmr_json::parse(&backend.metrics_json()).unwrap();
        let histogram = metrics.get("serve.batch_size").unwrap();
        histogram.get("count").and_then(gmr_json::Value::as_u64)
    };
    assert_eq!(batches(), Some(2));
    let body = br#"{"scenario": "dry", "model": "table5-manual", "variants": 8}"#;
    let sweep = post(backend.addr(), "/sweep", body);
    assert_eq!(batches(), Some(2), "a sweep is not a /simulate batch");
    gateway.shutdown();
    backend.shutdown();
    assert_eq!(access_events(direct), [("/simulate", 200, false)]);
    let mut hops = access_events(proxied);
    hops.sort_unstable();
    assert_eq!(
        hops,
        [("/simulate", 200, false), ("gw:/simulate", 200, false)]
    );
    assert_eq!(access_events(sweep), [("/sweep", 200, false)]);
}

/// A backend's `429` relayed by the gateway is the backend's shed, so the
/// gateway journals it with `shed: false`; `gateway.shed_total` still
/// counts it, like every 429 the gateway answers.
#[test]
fn relayed_429_is_counted_but_not_journaled_as_the_gateways_shed() {
    use gmr_json::Value;
    use gmr_obsv::journal::Event;
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let backend = listener.local_addr().unwrap();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                while read_request(&mut reader).ok().flatten().is_some() {
                    let body = r#"{"error": "backend saturated"}"#;
                    let head = format!(
                        "HTTP/1.1 429 Too Many Requests\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    );
                    if stream
                        .write_all(head.as_bytes())
                        .and_then(|()| stream.write_all(body.as_bytes()))
                        .is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    let slots = Arc::new(vec![BackendSlot::default()]);
    slots[0].set_addr(backend);
    let gateway = Gateway::new(GatewayConfig::default(), slots)
        .start()
        .unwrap();
    let body = br#"{"model": "m", "forcings_ref": "t"}"#;
    let (status, _) = http_request(gateway.addr(), "POST", "/simulate", body).unwrap();
    assert_eq!(status, 429);
    let (_, metrics) = http_request(gateway.addr(), "GET", "/metrics", b"").unwrap();
    gateway.shutdown();
    let v = gmr_json::parse(std::str::from_utf8(&metrics).unwrap()).unwrap();
    let shed = v
        .get("gateway")
        .and_then(|g| g.get("gateway.shed_total"))
        .and_then(Value::as_u64);
    assert_eq!(shed, Some(1));
    let journal = gmr_obsv::global().expect("journal installed").snapshot();
    let relayed = journal.iter().find_map(|r| match r.event {
        Event::Access {
            path: "gw:/simulate",
            status: 429,
            shed,
            ..
        } => Some(shed),
        _ => None,
    });
    assert_eq!(relayed, Some(false));
}
