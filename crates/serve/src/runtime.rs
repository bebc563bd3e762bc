//! The connection runtime both HTTP services run on: the backend server
//! (`server.rs`) and the routing gateway (`gateway.rs`).
//!
//! Threading model (all `std`, no async runtime):
//!
//! ```text
//!   acceptor ──► conn queue (bounded, Mutex+Condvar) ──► N workers ──► Service::dispatch
//! ```
//!
//! The runtime owns everything about connections: the listener, the
//! bounded connection queue with its `429` at the door, the worker
//! threads, the keep-alive loop, per-request bookkeeping (route tags, the
//! request/shed/latency metrics, one `access` journal event per answered
//! request) and the drain. A [`Service`] supplies only what is its own:
//! its [`Labels`], its per-worker state, `dispatch`, and one hook for its
//! extra metrics.
//!
//! Two time limits, both from the service's config:
//!
//! * every socket read times out after `read_timeout`, so a worker parked
//!   on a quiet connection notices a drain within that long;
//! * the *budget*, `max_idle_reads × read_timeout`, bounds how long a
//!   keep-alive connection may sit idle between requests (then
//!   `408 idle timeout`) and how long one request may take to arrive,
//!   counted from its first byte (then `408 request timeout`). A client
//!   trickling a byte at a time cannot hold a worker past the budget.
//!
//! Graceful drain: [`Runtime::shutdown`] flips one atomic. The acceptor
//! stops accepting, workers finish the connections already queued plus
//! whatever request is mid-flight, and `shutdown` joins every thread.

use crate::http::{self, HttpError, Request};
use crate::trace::TraceCtx;
use gmr_obsv::journal::Event;
use gmr_obsv::metrics::{Counter, Histogram, Registry};
use std::collections::VecDeque;
use std::io::{self, BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Route tags per service: the known routes, then `(other)`.
pub(crate) const ROUTES: usize = 7;

/// The route table, spelled once: every route tag in one fixed order
/// (so per-route histograms are pre-registered rather than created per
/// hit), under a service's tag prefix. Adding a route means adding it
/// here and in the services' `dispatch`; `route_tags_cover_dispatch`
/// fails if a served path falls through to `(other)`.
macro_rules! routes {
    ($prefix:literal) => {
        [
            concat!($prefix, "/healthz"),
            concat!($prefix, "/models"),
            concat!($prefix, "/simulate"),
            concat!($prefix, "/scenarios"),
            concat!($prefix, "/sweep"),
            concat!($prefix, "/metrics"),
            concat!($prefix, "(other)"),
        ]
    };
}
pub(crate) use routes;

/// The unprefixed table: the request paths themselves.
const PATHS: [&str; ROUTES] = routes!("");

/// Index of `path`'s route in every [`Labels::routes`]. The query string
/// is ignored; an unknown path gets the last slot, `(other)`.
pub(crate) fn route_index(path: &str) -> usize {
    let bare = path.split('?').next().unwrap_or(path);
    PATHS[..ROUTES - 1]
        .iter()
        .position(|p| *p == bare)
        .unwrap_or(ROUTES - 1)
}

/// One service's names in journals, metrics and thread names.
pub(crate) struct Labels {
    /// Route tags ([`routes!`] under the service's prefix).
    pub routes: [&'static str; ROUTES],
    /// Tag of a connection shed at the door.
    pub accept: &'static str,
    /// Tag of a request that could not be parsed.
    pub malformed: &'static str,
    /// Metric namespace (`serve`, `gateway`); also prefixes thread names.
    pub ns: &'static str,
    /// Error text of the `429` written to a connection shed at the door.
    pub shed_body: &'static str,
}

/// The metrics the runtime records for every service.
pub(crate) struct ConnMetrics {
    /// Every request answered, door sheds and malformed ones included.
    requests: Arc<Counter>,
    /// Every `429` answered, at the door or by `dispatch`.
    shed: Arc<Counter>,
    /// Dispatch time per request, microseconds.
    latency_us: Arc<Histogram>,
    /// Per-route dispatch time, index-aligned with [`Labels::routes`].
    route_latency: Vec<Arc<Histogram>>,
}

impl ConnMetrics {
    /// Register `<ns>.requests_total`, `<ns>.shed_total`,
    /// `<ns>.latency_us` and one `<ns>.route.<tag>.latency_us` per route.
    pub fn new(registry: &Registry, labels: &Labels) -> ConnMetrics {
        let ns = labels.ns;
        ConnMetrics {
            requests: registry.counter(&format!("{ns}.requests_total")),
            shed: registry.counter(&format!("{ns}.shed_total")),
            latency_us: registry.histogram(&format!("{ns}.latency_us")),
            route_latency: labels
                .routes
                .iter()
                .map(|t| registry.histogram(&format!("{ns}.route.{t}.latency_us")))
                .collect(),
        }
    }

    /// Count one dispatched request.
    pub fn record(&self, route: usize, status: u16, dur_us: u64) {
        self.requests.inc();
        if status == 429 {
            self.shed.inc();
        }
        self.latency_us.record(dur_us);
        self.route_latency[route].record(dur_us);
    }
}

/// What one dispatched request produced: the response, and the
/// attribution its `access` event and the service's metrics record.
#[derive(Debug, Default)]
pub(crate) struct Served {
    pub status: u16,
    pub body: Vec<u8>,
    /// `Retry-After` to send; `None` keeps the default (1 s on a 429).
    pub retry_after: Option<u64>,
    /// Model name, when the request named one.
    pub model: String,
    /// Forcing-table name (`"(inline)"` for shipped rows).
    pub table: String,
    /// Width of the coalesced `/simulate` batch that served the request
    /// (0 when no `/simulate` job ran here; a `/sweep` is not a batch).
    pub batch: u64,
    /// Microseconds the job waited in the simulation queue.
    pub queue_us: u64,
    /// Microseconds of simulation work, or of the upstream exchange when
    /// the response was relayed.
    pub sim_us: u64,
    /// The backend slot whose response this relays.
    pub backend: Option<usize>,
}

impl Served {
    /// A response with no attribution.
    pub fn plain(status: u16, body: Vec<u8>) -> Served {
        Served {
            status,
            body,
            ..Served::default()
        }
    }

    /// An `{"error": msg}` response with no attribution.
    pub fn error(status: u16, msg: &str) -> Served {
        Served::plain(status, http::error_body(msg))
    }

    /// This response, attributed to a (model, table) pair.
    pub fn tagged(self, model: &str, table: &str) -> Served {
        Served {
            model: model.to_string(),
            table: table.to_string(),
            ..self
        }
    }
}

/// An HTTP service the runtime can serve.
pub(crate) trait Service: Send + Sync + 'static {
    /// State one worker thread owns for its whole life; dropped when the
    /// thread exits.
    type Worker: Send + 'static;
    /// This service's names.
    const LABELS: Labels;
    /// The runtime's metrics, registered in the service's own registry so
    /// its `/metrics` shows them.
    fn conn_metrics(&self) -> &ConnMetrics;
    /// Answer one request. `draining` is set once shutdown has begun.
    fn dispatch(
        &self,
        worker: &mut Self::Worker,
        req: &Request,
        ctx: TraceCtx,
        draining: bool,
    ) -> Served;
    /// Record this service's own metrics for one answered request.
    fn record(&self, tag: &'static str, served: &Served, dur_us: u64);
}

/// The connection limits every service's config carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Accepted-connection queue bound; beyond it the acceptor sheds.
    pub conn_queue: usize,
    /// Per-read socket timeout.
    pub read_timeout: Duration,
    /// Read timeouts that make up the budget.
    pub max_idle_reads: u32,
}

/// Only a panic inside the runtime's own short queue operations can
/// poison the connection-queue lock.
const POISONED: &str = "connection queue lock poisoned";

struct Shared<S> {
    service: S,
    limits: Limits,
    draining: AtomicBool,
    conns: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// A running service: its bound address and the threads `shutdown`
/// joins.
pub(crate) struct Runtime<S> {
    addr: SocketAddr,
    shared: Arc<Shared<S>>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> Runtime<S> {
    /// Bind `addr`, then spawn one worker thread per entry of `workers`
    /// (each owns its entry) and the acceptor.
    pub fn start(
        addr: &str,
        limits: Limits,
        service: S,
        workers: Vec<S::Worker>,
    ) -> io::Result<Runtime<S>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let ns = S::LABELS.ns;
        let shared = Arc::new(Shared {
            service,
            limits,
            draining: AtomicBool::new(false),
            conns: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let mut threads = Vec::with_capacity(workers.len() + 1);
        for (i, worker) in workers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("{ns}-worker-{i}"))
                    .spawn(move || shared.work(worker))?,
            );
        }
        let acceptor = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name(format!("{ns}-acceptor"))
                .spawn(move || acceptor.accept_loop(listener))?,
        );
        Ok(Runtime {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (the real port even when the config said `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service being served.
    pub fn service(&self) -> &S {
        &self.shared.service
    }

    /// Begin a graceful drain and block until every runtime thread has
    /// exited: stop accepting, serve what is queued and in flight, join.
    pub fn shutdown(self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

impl<S: Service> Shared<S> {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn accept_loop(&self, listener: TcpListener) {
        loop {
            if self.draining() {
                // Wake every parked worker so they observe the flag.
                self.ready.notify_all();
                return;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let mut q = self.conns.lock().expect(POISONED);
                    if q.len() >= self.limits.conn_queue {
                        drop(q);
                        self.shed_at_door(stream);
                    } else {
                        q.push_back(stream);
                        drop(q);
                        self.ready.notify_one();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Shed a connection the full queue cannot hold: an explicit `429`,
    /// never a hang. The request is never read.
    fn shed_at_door(&self, mut stream: TcpStream) {
        let metrics = self.service.conn_metrics();
        metrics.shed.inc();
        metrics.requests.inc();
        let _ = stream.set_nodelay(true);
        answer_unparsed(
            &mut stream,
            S::LABELS.accept,
            Served::error(429, S::LABELS.shed_body),
        );
    }

    /// Serve queued connections until the drain empties the queue.
    fn work(&self, mut worker: S::Worker) {
        loop {
            let stream = {
                let mut q = self.conns.lock().expect(POISONED);
                loop {
                    if let Some(s) = q.pop_front() {
                        break s;
                    }
                    if self.draining() {
                        return;
                    }
                    let (guard, _) = self
                        .ready
                        .wait_timeout(q, Duration::from_millis(100))
                        .expect(POISONED);
                    q = guard;
                }
            };
            self.serve_connection(stream, &mut worker);
        }
    }

    /// Serve one (possibly keep-alive) connection to completion.
    fn serve_connection(&self, stream: TcpStream, worker: &mut S::Worker) {
        let limits = self.limits;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(limits.read_timeout));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(Inbound {
            stream: read_half,
            budget: limits.read_timeout * limits.max_idle_reads,
            draining: &self.draining,
            started: None,
        });
        let mut writer = stream;
        let labels = &S::LABELS;
        let metrics = self.service.conn_metrics();
        let mut idle = 0u32;
        loop {
            match http::read_request(&mut reader) {
                Ok(None) => return, // clean close between requests
                Ok(Some(req)) => {
                    idle = 0;
                    let draining = self.draining();
                    let close = req.wants_close() || draining;
                    // Adopt the caller's trace context (the gateway's hop,
                    // or a client that already has one) or mint a root.
                    let ctx = TraceCtx::from_header(req.header("x-gmr-trace"));
                    let route = route_index(&req.path);
                    let tag = labels.routes[route];
                    let t0 = Instant::now();
                    let mut served = self.service.dispatch(worker, &req, ctx, draining);
                    let dur_us = t0.elapsed().as_micros() as u64;
                    let status = served.status;
                    metrics.record(route, status, dur_us);
                    self.service.record(tag, &served, dur_us);
                    journal(tag, &req.method, ctx, &mut served, dur_us);
                    if http::write_response_traced(
                        &mut writer,
                        status,
                        "application/json",
                        &served.body,
                        close,
                        served.retry_after,
                        Some(&ctx.header_value()),
                    )
                    .is_err()
                        || close
                    {
                        return;
                    }
                    // Bytes already buffered belong to a pipelined next
                    // request: its clock starts now.
                    let pipelined = !reader.buffer().is_empty();
                    reader.get_mut().started = pipelined.then(Instant::now);
                }
                Err(HttpError::Io(e)) if e.kind() == ErrorKind::WouldBlock => {
                    // Idle keep-alive connection. During a drain, or after
                    // the budget, close it.
                    idle += 1;
                    if self.draining() {
                        return;
                    }
                    if idle >= limits.max_idle_reads {
                        return refuse(&mut writer, 408, "idle timeout");
                    }
                }
                // A request still arriving when its budget ran out.
                Err(HttpError::Io(e)) if e.kind() == ErrorKind::TimedOut => {
                    return refuse(&mut writer, 408, "request timeout");
                }
                Err(HttpError::Io(_)) => return,
                Err(HttpError::Malformed(msg)) => {
                    metrics.requests.inc();
                    return answer_unparsed(&mut writer, labels.malformed, Served::error(400, msg));
                }
            }
        }
    }
}

/// Answer `status` with an `{"error": msg}` body before closing.
fn refuse(writer: &mut TcpStream, status: u16, msg: &str) {
    let body = http::error_body(msg);
    let _ = http::write_response(writer, status, "application/json", &body, true);
}

/// Answer a request that was never parsed (a door shed, a malformed head)
/// and close. There is no header to adopt, so mint a root trace and echo
/// it anyway: the answer is journaled under `tag` and attributable like
/// any served request.
fn answer_unparsed(stream: &mut TcpStream, tag: &'static str, mut served: Served) {
    let ctx = TraceCtx::mint();
    let _ = http::write_response_traced(
        stream,
        served.status,
        "application/json",
        &served.body,
        true,
        None,
        Some(&ctx.header_value()),
    );
    journal(tag, "-", ctx, &mut served, 0);
}

/// Journal one answered request as its `access` event. Takes the model
/// and table out of `served`.
fn journal(tag: &'static str, method: &str, ctx: TraceCtx, served: &mut Served, dur_us: u64) {
    gmr_obsv::emit(Event::Access {
        trace: ctx.trace,
        span: ctx.span,
        parent: ctx.parent,
        method: method.to_string(),
        path: tag,
        model: std::mem::take(&mut served.model),
        table: std::mem::take(&mut served.table),
        status: served.status,
        // A relayed 429 is the backend's shed, journaled there; this hop
        // only passed it on.
        shed: served.status == 429 && served.backend.is_none(),
        batched: served.batch > 1,
        queue_us: served.queue_us,
        sim_us: served.sim_us,
        dur_us,
    });
}

/// The read half of one connection. Between requests a socket timeout
/// surfaces as `WouldBlock`, the idle tick the connection loop counts.
/// Once a request's first byte has arrived the reader waits on through
/// socket timeouts until the budget, counted from that byte, is spent,
/// then fails with `TimedOut` — so the request must arrive whole within
/// the budget however it is paced. A drain cuts the wait at the next
/// socket timeout.
struct Inbound<'a> {
    stream: TcpStream,
    budget: Duration,
    draining: &'a AtomicBool,
    /// When the request being read sent its first byte.
    started: Option<Instant>,
}

impl Read for Inbound<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.started.is_some_and(|t| t.elapsed() >= self.budget) {
                return Err(io::Error::new(ErrorKind::TimedOut, "request timeout"));
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 && self.started.is_none() {
                        self.started = Some(Instant::now());
                    }
                    return Ok(n);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.started.is_none() || self.draining.load(Ordering::SeqCst) {
                        return Err(ErrorKind::WouldBlock.into());
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}
