//! Seeded property tests for HTTP framing, on the `compat/proptest` shim.
//!
//! * Whatever the read split, a request written by
//!   `write_request_traced` parses back equal.
//! * Pipelined requests parse in order.
//! * Arbitrary bytes never panic, never read past the head or body
//!   limits, and end as a request, a malformed request, or an EOF.
//! * Against a live server and a live gateway, random garbage gets a
//!   well-formed 4xx status line or a clean close, within the budget.

use gmr_serve::batch::Tables;
use gmr_serve::http::{read_request, HttpError, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use gmr_serve::server::{read_response_full, write_request_traced};
use gmr_serve::{BackendSlot, Gateway, GatewayConfig, ModelRegistry, Server, ServerConfig};
use proptest::prelude::*;
use proptest::test_runner::{run_property, TestRng};
use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request as a client sends it: method, path, body, trace header.
type Wire = (String, String, Vec<u8>, Option<String>);

fn wire_request() -> impl Strategy<Value = Wire> {
    (
        prop_oneof![Just("GET"), Just("POST"), Just("PUT")],
        "/[a-z0-9_?=&.-]{0,24}",
        prop::collection::vec(any::<u8>(), 0..300),
        (any::<bool>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(method, path, body, (traced, t, s))| {
            let trace = traced.then(|| format!("{t:016x}-{s:016x}"));
            (method.to_string(), path, body, trace)
        })
}

fn encode((method, path, body, trace): &Wire) -> Vec<u8> {
    let mut out = Vec::new();
    write_request_traced(&mut out, method, path, body, false, trace.as_deref()).unwrap();
    out
}

fn parses_as(req: &Request, (method, path, body, trace): &Wire) -> bool {
    req.method == *method
        && req.path == *path
        && req.body == *body
        && req.header("x-gmr-trace") == trace.as_deref()
        && !req.wants_close()
}

/// A reader that hands its bytes out in chunks of the sizes in `splits`
/// (cycled), one chunk per `read`.
struct Split {
    data: Vec<u8>,
    pos: usize,
    splits: Vec<usize>,
    reads: usize,
}

impl Split {
    fn new(data: Vec<u8>, splits: Vec<usize>) -> BufReader<Split> {
        BufReader::new(Split {
            data,
            pos: 0,
            splits,
            reads: 0,
        })
    }
}

impl Read for Split {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = self.splits[self.reads % self.splits.len()];
        self.reads += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Inputs a hostile or broken client could send.
fn hostile() -> impl Strategy<Value = Vec<u8>> {
    // Framing headers, in any pair: equal and unequal lengths, non-numeric
    // and over-limit ones, refused transfer codings.
    const FRAMING: [&str; 6] = [
        "Content-Length: 2",
        "Content-Length: 5",
        "Content-Length: -1",
        "Content-Length: 99999999999",
        "Content-Length: 2, 5",
        "Transfer-Encoding: chunked",
    ];
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..512),
        // A valid request with bytes overwritten.
        (
            wire_request(),
            prop::collection::vec((any::<usize>(), any::<u8>()), 1..8)
        )
            .prop_map(|(req, edits)| {
                let mut b = encode(&req);
                let n = b.len();
                for (i, x) in edits {
                    b[i % n] = x;
                }
                b
            }),
        // A valid request cut short.
        (wire_request(), any::<usize>()).prop_map(|(req, cut)| {
            let b = encode(&req);
            b[..cut % (b.len() + 1)].to_vec()
        }),
        // A head line around the head limit, with or without its newline.
        (MAX_HEAD_BYTES - 64..MAX_HEAD_BYTES + 64, any::<bool>()).prop_map(|(n, newline)| {
            let mut b = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
            b.resize(n, b'x');
            if newline {
                b.extend_from_slice(b"\r\n\r\n");
            }
            b
        }),
        (
            0..FRAMING.len(),
            0..FRAMING.len(),
            prop::collection::vec(any::<u8>(), 0..8)
        )
            .prop_map(|(a, b, body)| {
                let mut out = format!(
                    "POST / HTTP/1.1\r\n{}\r\n{}\r\n\r\n",
                    FRAMING[a], FRAMING[b]
                )
                .into_bytes();
                out.extend_from_slice(&body);
                out
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_read_split_parses_back_equal(
        req in wire_request(),
        splits in prop::collection::vec(1usize..64, 1..6),
    ) {
        let mut r = Split::new(encode(&req), splits);
        let parsed = read_request(&mut r);
        prop_assert!(
            matches!(&parsed, Ok(Some(p)) if parses_as(p, &req)),
            "{parsed:?} is not {req:?}"
        );
        prop_assert!(matches!(read_request(&mut r), Ok(None)));
    }

    #[test]
    fn pipelined_requests_parse_in_order(
        reqs in prop::collection::vec(wire_request(), 1..6),
        splits in prop::collection::vec(1usize..64, 1..6),
    ) {
        let mut r = Split::new(reqs.iter().flat_map(encode).collect(), splits);
        for req in &reqs {
            let parsed = read_request(&mut r);
            prop_assert!(
                matches!(&parsed, Ok(Some(p)) if parses_as(p, req)),
                "{parsed:?} is not {req:?}"
            );
        }
        prop_assert!(matches!(read_request(&mut r), Ok(None)));
    }

    #[test]
    fn arbitrary_bytes_end_in_a_known_way(bytes in hostile()) {
        let mut rest = &bytes[..];
        loop {
            let before = rest.len();
            let read = read_request(&mut rest);
            let consumed = before - rest.len();
            match read {
                Ok(None) => break,
                Ok(Some(req)) => {
                    prop_assert!(consumed - req.body.len() <= MAX_HEAD_BYTES + 1);
                }
                Err(HttpError::Malformed(_)) => {
                    // Every malformed verdict is reached inside the head.
                    prop_assert!(consumed <= MAX_HEAD_BYTES + 1, "read {consumed}");
                    break;
                }
                Err(HttpError::Io(e)) => {
                    prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                    prop_assert!(consumed <= MAX_HEAD_BYTES + 1 + MAX_BODY_BYTES);
                    break;
                }
            }
        }
    }
}

const READ_TIMEOUT: Duration = Duration::from_millis(50);
const MAX_IDLE_READS: u32 = 4;

/// Send `garbage` (then half-close, when asked) and check the answer: a
/// 4xx status line or a clean close, within the budget and some slack.
fn poke(addr: SocketAddr, garbage: &[u8], half_close: bool) -> Result<(), String> {
    let budget = READ_TIMEOUT * MAX_IDLE_READS;
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(budget + Duration::from_secs(2)))
        .unwrap();
    stream.write_all(garbage).map_err(|e| e.to_string())?;
    if half_close {
        stream
            .shutdown(Shutdown::Write)
            .map_err(|e| e.to_string())?;
    }
    let mut answer = Vec::new();
    stream
        .read_to_end(&mut answer)
        .map_err(|e| format!("no clean close: {e}"))?;
    let took = t0.elapsed();
    if took > budget + Duration::from_secs(1) {
        return Err(format!("answered after {took:?}"));
    }
    if answer.is_empty() {
        return Ok(());
    }
    match read_response_full(&mut &answer[..]) {
        Ok(r) if (400..500).contains(&r.status) => Ok(()),
        other => Err(format!(
            "not a 4xx: {other:?} from {:?}",
            String::from_utf8_lossy(&answer)
        )),
    }
}

#[test]
fn live_services_answer_garbage_with_a_4xx_or_a_clean_close() {
    let server = Server::new(
        ServerConfig {
            read_timeout: READ_TIMEOUT,
            max_idle_reads: MAX_IDLE_READS,
            ..ServerConfig::default()
        },
        ModelRegistry::new(),
        Tables::new(),
    )
    .start()
    .unwrap();
    let slots = Arc::new(vec![BackendSlot::default()]);
    slots[0].set_addr(server.addr());
    let gateway = Gateway::new(
        GatewayConfig {
            read_timeout: READ_TIMEOUT,
            max_idle_reads: MAX_IDLE_READS,
            ..GatewayConfig::default()
        },
        slots,
    )
    .start()
    .unwrap();
    let garbage = (prop::collection::vec(any::<u8>(), 0..1024), any::<bool>());
    run_property(
        "framing::live_services_answer_garbage_with_a_4xx_or_a_clean_close",
        &ProptestConfig::with_cases(24),
        |rng: &mut TestRng| {
            let (bytes, half_close) = garbage.generate(rng);
            let bindings = format!("  bytes = {bytes:?}\n  half_close = {half_close}\n");
            let outcome = [("server", server.addr()), ("gateway", gateway.addr())]
                .into_iter()
                .try_for_each(|(name, addr)| {
                    poke(addr, &bytes, half_close)
                        .map_err(|e| TestCaseError::Fail(format!("{name}: {e}")))
                });
            (bindings, outcome)
        },
    );
    gateway.shutdown();
    server.shutdown();
}
