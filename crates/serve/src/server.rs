//! The HTTP serving loop: acceptor, worker pool, bounded queues, drain.
//!
//! Threading model (all `std`, no async runtime):
//!
//! ```text
//!   acceptor ──► conn queue (bounded, Mutex+Condvar) ──► N workers
//!                                                         │ try_send
//!                                                         ▼
//!                                   sim queue (bounded, sync_channel)
//!                                                         │
//!                                                         ▼
//!                                              batcher (self-clocking)
//! ```
//!
//! Backpressure is explicit at both queues: a full connection queue gets
//! an immediate `429` written by the acceptor itself, and a full
//! simulation queue turns into a `429` from the worker. The server sheds
//! load; it never silently drops or indefinitely parks a request.
//!
//! Graceful drain: [`ServerHandle::shutdown`] (or a SIGTERM observed by
//! the binary) flips one atomic. The acceptor stops accepting, workers
//! finish the connections already queued plus whatever request is
//! mid-flight, the batcher flushes its final batch once every worker has
//! dropped its queue handle, and `shutdown` joins every thread before
//! returning.

use crate::batch::{run_batcher, ForcingSource, Mode, SimJob, SimOutcome, SimOutput, Tables};
use crate::http::{self, HttpError, Request};
use crate::registry::ModelRegistry;
use crate::scenario::{parse_sweep_request, render_sweep, run_sweep, ScenarioStore};
use crate::trace::TraceCtx;
use gmr_json::{push_escaped, push_f64};
use gmr_obsv::journal::Event;
use gmr_obsv::metrics::{snapshot_json, Counter, Histogram, Registry};
use std::collections::VecDeque;
use std::io::{self, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning. The defaults suit the single-core CI boxes this repo
/// targets: a small worker pool (workers mostly block on I/O or on the
/// batcher, so they outnumber cores without thrashing). Batching has no
/// knob: the batcher coalesces whatever queued while its previous flush
/// ran, so batch width follows load (see [`crate::batch`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accepted-connection queue bound; beyond it the acceptor sheds with
    /// an immediate `429`.
    pub conn_queue: usize,
    /// Simulation queue bound; a full queue turns the request into `429`.
    pub sim_queue: usize,
    /// Per-read socket timeout. Bounds how long a worker can ignore the
    /// shutdown flag while parked on an idle keep-alive connection.
    pub read_timeout: Duration,
    /// Consecutive idle read timeouts tolerated on one connection before
    /// it is closed with `408`.
    pub max_idle_reads: u32,
    /// Hot-tier capacity: how many compiled models stay resident at once
    /// (`0` = unbounded). Cold records always remain; an evicted model is
    /// recompiled (and re-verified) on its next touch.
    pub hot_models: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            conn_queue: 64,
            sim_queue: 128,
            read_timeout: Duration::from_millis(250),
            max_idle_reads: 40,
            hot_models: 0,
        }
    }
}

/// Every endpoint tag [`endpoint_tag`] can return, in one fixed order so
/// per-route histograms are pre-registered rather than created per hit.
/// Adding a route means adding it here AND in `endpoint_tag` — the
/// `route_tags_cover_dispatch` test fails if the two drift, which is what
/// used to let new endpoints silently fall through to `(other)`.
pub const ROUTE_TAGS: [&str; 7] = [
    "/healthz",
    "/models",
    "/simulate",
    "/scenarios",
    "/sweep",
    "/metrics",
    "(other)",
];

/// Serving-stack metrics, exposed verbatim by `/metrics`.
pub struct ServeMetrics {
    /// The registry `/metrics` snapshots.
    pub registry: Registry,
    /// Total requests answered (any status).
    pub requests: Arc<Counter>,
    /// Requests shed with `429` (either queue).
    pub shed: Arc<Counter>,
    /// Coalesced sweep width per `/simulate` response.
    pub batch: Arc<Histogram>,
    /// End-to-end request service time, microseconds.
    pub latency_us: Arc<Histogram>,
    /// Per-route service time, index-aligned with [`ROUTE_TAGS`].
    pub route_latency: Vec<Arc<Histogram>>,
    /// Scenarios freshly admitted through `POST /scenarios`.
    pub scn_admitted: Arc<Counter>,
    /// `/sweep` requests executed.
    pub scn_sweeps: Arc<Counter>,
    /// Ensemble variants simulated across all sweeps.
    pub scn_variants: Arc<Counter>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = Registry::new();
        ServeMetrics {
            requests: registry.counter("serve.requests_total"),
            shed: registry.counter("serve.shed_total"),
            batch: registry.histogram("serve.batch_size"),
            latency_us: registry.histogram("serve.latency_us"),
            route_latency: ROUTE_TAGS
                .iter()
                .map(|t| registry.histogram(&format!("serve.route.{t}.latency_us")))
                .collect(),
            scn_admitted: registry.counter("scn.admitted_total"),
            scn_sweeps: registry.counter("scn.sweeps_total"),
            scn_variants: registry.counter("scn.sweep_variants_total"),
            registry,
        }
    }

    fn record_route(&self, tag: &str, dur_us: u64) {
        if let Some(i) = ROUTE_TAGS.iter().position(|t| *t == tag) {
            self.route_latency[i].record(dur_us);
        }
    }
}

/// Everything the worker threads share.
struct Shared {
    registry: Arc<ModelRegistry>,
    tables: Arc<Tables>,
    /// Runtime-admitted scenarios; the same store the tables resolve
    /// `scn:` forcing refs through.
    scenarios: Arc<ScenarioStore>,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    conns: Mutex<VecDeque<TcpStream>>,
    conns_ready: Condvar,
    config: ServerConfig,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A configured server, ready to start.
pub struct Server {
    config: ServerConfig,
    registry: ModelRegistry,
    tables: Tables,
}

/// A running server: its bound address plus the join handles `shutdown`
/// drains.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bundle a registry and hosted tables under a config.
    pub fn new(config: ServerConfig, registry: ModelRegistry, tables: Tables) -> Server {
        Server {
            config,
            registry,
            tables,
        }
    }

    /// Bind, spawn the acceptor/worker/batcher threads, return a handle.
    pub fn start(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = self.config.workers.max(1);
        let mut registry = self.registry;
        registry.set_hot_cap(self.config.hot_models);
        // One scenario store serves both the dispatch path (admission,
        // listing, sweeps) and the batcher (solo `scn:` forcing refs) —
        // attach it to the tables before they freeze behind the Arc.
        let mut tables = self.tables;
        let scenarios = match tables.scenarios() {
            Some(s) => Arc::clone(s),
            None => {
                let s = Arc::new(ScenarioStore::new());
                tables.attach_scenarios(Arc::clone(&s));
                s
            }
        };
        let shared = Arc::new(Shared {
            registry: Arc::new(registry),
            tables: Arc::new(tables),
            scenarios,
            metrics: ServeMetrics::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(VecDeque::new()),
            conns_ready: Condvar::new(),
            config: self.config,
        });
        let (sim_tx, sim_rx) = mpsc::sync_channel::<SimJob>(shared.config.sim_queue.max(1));
        let mut threads = Vec::with_capacity(workers + 2);

        let batcher_tables = Arc::clone(&shared.tables);
        let batcher_registry = Arc::clone(&shared.registry);
        threads.push(
            thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || run_batcher(sim_rx, batcher_tables, batcher_registry))?,
        );
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let sim_tx = sim_tx.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, sim_tx))?,
            );
        }
        // `sim_tx` originals all live in workers now; dropping ours means
        // the batcher exits exactly when the last worker does.
        drop(sim_tx);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("serve-acceptor".into())
                    .spawn(move || accept_loop(listener, &shared))?,
            );
        }
        gmr_obsv::emit(Event::Note {
            name: "serve.listen",
            msg: format!("gmr-serve listening on {addr}"),
        });
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (real port even when config said `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the serving metrics as JSON (same body `/metrics` serves).
    pub fn metrics_json(&self) -> String {
        metrics_body(&self.shared.metrics, &self.shared.registry)
    }

    /// Begin a graceful drain and block until every thread has exited:
    /// stop accepting, serve what is queued and in flight, flush the
    /// batcher, join.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.conns_ready.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        if shared.draining() {
            // Wake every parked worker so they observe the flag.
            shared.conns_ready.notify_all();
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let mut q = shared.conns.lock().unwrap();
                if q.len() >= shared.config.conn_queue {
                    drop(q);
                    // Shed at the door: an explicit 429, never a hang. The
                    // request is never read, so there is no header to
                    // adopt — mint a root trace and echo it anyway; the
                    // shed is attributable like any served request.
                    shared.metrics.shed.inc();
                    shared.metrics.requests.inc();
                    let ctx = TraceCtx::mint();
                    let mut stream = stream;
                    let _ = stream.set_nodelay(true);
                    let _ = http::write_response_traced(
                        &mut stream,
                        429,
                        "application/json",
                        &http::error_body("connection queue full"),
                        true,
                        None,
                        Some(&ctx.header_value()),
                    );
                    gmr_obsv::emit(Event::Request {
                        endpoint: "(accept)",
                        status: 429,
                        dur_us: 0,
                        batch: 0,
                    });
                    gmr_obsv::emit(Event::Access {
                        trace: ctx.trace,
                        span: ctx.span,
                        parent: ctx.parent,
                        method: "-".into(),
                        path: "(accept)",
                        model: String::new(),
                        table: String::new(),
                        status: 429,
                        shed: true,
                        batched: false,
                        queue_us: 0,
                        sim_us: 0,
                        dur_us: 0,
                    });
                } else {
                    q.push_back(stream);
                    drop(q);
                    shared.conns_ready.notify_one();
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(shared: &Shared, sim_tx: SyncSender<SimJob>) {
    loop {
        let stream = {
            let mut q = shared.conns.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shared
                    .conns_ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        let Some(stream) = stream else { return };
        handle_connection(stream, shared, &sim_tx);
    }
}

/// Serve one (possibly keep-alive) connection to completion.
fn handle_connection(stream: TcpStream, shared: &Shared, sim_tx: &SyncSender<SimJob>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut idle = 0u32;
    loop {
        match http::read_request(&mut reader) {
            Ok(None) => return, // clean close between requests
            Ok(Some(req)) => {
                idle = 0;
                let close = req.wants_close() || shared.draining();
                // Adopt the caller's trace context (the gateway's hop) or
                // mint a root when called directly.
                let ctx = TraceCtx::from_header(req.header("x-gmr-trace"));
                let tag = endpoint_tag(&req.path);
                let t0 = Instant::now();
                let served = dispatch(&req, shared, sim_tx, ctx);
                let dur_us = t0.elapsed().as_micros() as u64;
                let status = served.status;
                shared.metrics.requests.inc();
                if status == 429 {
                    shared.metrics.shed.inc();
                }
                shared.metrics.latency_us.record(dur_us);
                shared.metrics.record_route(tag, dur_us);
                if served.batch > 0 {
                    shared.metrics.batch.record(served.batch);
                }
                gmr_obsv::emit(Event::Request {
                    endpoint: tag,
                    status,
                    dur_us,
                    batch: served.batch,
                });
                gmr_obsv::emit(Event::Access {
                    trace: ctx.trace,
                    span: ctx.span,
                    parent: ctx.parent,
                    method: req.method.clone(),
                    path: tag,
                    model: served.model,
                    table: served.table,
                    status,
                    shed: status == 429,
                    batched: served.batch > 1,
                    queue_us: served.queue_us,
                    sim_us: served.sim_us,
                    dur_us,
                });
                if http::write_response_traced(
                    &mut writer,
                    status,
                    "application/json",
                    &served.body,
                    close,
                    None,
                    Some(&ctx.header_value()),
                )
                .is_err()
                    || close
                {
                    return;
                }
            }
            Err(HttpError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                // Idle keep-alive connection. During a drain, or after the
                // idle budget, close it; a timeout that interrupted a
                // half-sent request will surface as a parse error on the
                // next round and be answered with 400.
                idle += 1;
                if shared.draining() {
                    return;
                }
                if idle >= shared.config.max_idle_reads {
                    let _ = http::write_response(
                        &mut writer,
                        408,
                        "application/json",
                        &http::error_body("idle timeout"),
                        true,
                    );
                    return;
                }
            }
            Err(HttpError::Io(_)) => return,
            Err(HttpError::Malformed(msg)) => {
                shared.metrics.requests.inc();
                gmr_obsv::emit(Event::Request {
                    endpoint: "(malformed)",
                    status: 400,
                    dur_us: 0,
                    batch: 0,
                });
                let _ = http::write_response(
                    &mut writer,
                    400,
                    "application/json",
                    &http::error_body(msg),
                    true,
                );
                return;
            }
        }
    }
}

/// Stable endpoint label for journal events and per-route histograms.
/// Every arm must return a member of [`ROUTE_TAGS`] (pinned by test) —
/// a new route added to `dispatch` but not here would land in the
/// `(other)` bucket instead of its own histogram.
fn endpoint_tag(path: &str) -> &'static str {
    let bare = path.split('?').next().unwrap_or(path);
    match bare {
        "/healthz" => "/healthz",
        "/models" => "/models",
        "/simulate" => "/simulate",
        "/scenarios" => "/scenarios",
        "/sweep" => "/sweep",
        "/metrics" => "/metrics",
        _ => "(other)",
    }
}

/// What one dispatched request produced: the response plus the
/// attribution fields the `access` journal event records.
struct Served {
    status: u16,
    body: Vec<u8>,
    /// Coalesced sweep width (0 for non-simulation endpoints).
    batch: u64,
    /// Model name, when the request named one.
    model: String,
    /// Forcing-table name (`"(inline)"` for shipped rows).
    table: String,
    /// Microseconds the job waited in the simulation queue.
    queue_us: u64,
    /// Microseconds of simulation work.
    sim_us: u64,
}

impl Served {
    /// A response with no simulation attribution.
    fn plain(status: u16, body: Vec<u8>) -> Served {
        Served {
            status,
            body,
            batch: 0,
            model: String::new(),
            table: String::new(),
            queue_us: 0,
            sim_us: 0,
        }
    }

    /// A response attributed to a (model, table) pair.
    fn tagged(status: u16, body: Vec<u8>, model: &str, table: &str) -> Served {
        Served {
            model: model.to_string(),
            table: table.to_string(),
            ..Served::plain(status, body)
        }
    }
}

/// Route one request.
fn dispatch(req: &Request, shared: &Shared, sim_tx: &SyncSender<SimJob>, ctx: TraceCtx) -> Served {
    let _sp = gmr_obsv::span_fine!("serve.dispatch", ctx.trace);
    let path = req.path.split('?').next().unwrap_or(&req.path);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"ok\": true, \"models\": {}, \"draining\": {}}}\n",
                shared.registry.len(),
                shared.draining()
            );
            Served::plain(200, body.into_bytes())
        }
        ("GET", "/models") => Served::plain(200, shared.registry.render_json().into_bytes()),
        ("GET", "/metrics") => {
            let body = metrics_body(&shared.metrics, &shared.registry);
            Served::plain(200, body.into_bytes())
        }
        ("POST", "/simulate") => simulate(req, shared, sim_tx, ctx),
        ("POST", "/scenarios") => scenarios_admit(req, shared),
        ("GET", "/scenarios") => Served::plain(200, shared.scenarios.render_json().into_bytes()),
        ("POST", "/sweep") => sweep(req, shared, ctx),
        ("GET", "/simulate" | "/sweep") | ("POST", "/healthz" | "/models" | "/metrics") => {
            Served::plain(
                405,
                http::error_body("method not allowed for this endpoint"),
            )
        }
        _ => Served::plain(404, http::error_body("no such endpoint")),
    }
}

/// `POST /scenarios`: lint-gate and admit a `gmr-scenario/v1` spec. The
/// store is append-only and name-immutable — an identical spec re-admits
/// as a no-op (`"fresh": false`), a different spec under a taken name is
/// `409` — so `scn:` refs and the gateway's scenario routing stay stable.
fn scenarios_admit(req: &Request, shared: &Shared) -> Served {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Served::plain(400, http::error_body("body is not UTF-8")),
    };
    match shared.scenarios.admit(body) {
        Ok((scn, fresh)) => {
            if fresh {
                shared.metrics.scn_admitted.inc();
            }
            let mut o = String::from("{\"admitted\": true, \"fresh\": ");
            o.push_str(if fresh { "true" } else { "false" });
            o.push_str(", \"name\": ");
            push_escaped(&mut o, &scn.spec.name);
            o.push_str(&format!(
                ", \"stations\": {}, \"days\": {}, \"outlet\": ",
                scn.spec.stations, scn.days
            ));
            push_escaped(&mut o, &scn.outlet);
            o.push_str("}\n");
            Served::plain(200, o.into_bytes())
        }
        Err((status, msg)) => Served::plain(status, http::error_body(&msg)),
    }
}

/// `POST /sweep`: fan one request into `variants` jittered forcings of an
/// admitted scenario, execute them through lock-step ensemble lanes, and
/// answer with per-variant summary statistics. Runs inline on the worker
/// (a sweep IS a batch — it does not coalesce with `/simulate` jobs).
fn sweep(req: &Request, shared: &Shared, ctx: TraceCtx) -> Served {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Served::plain(400, http::error_body("body is not UTF-8")),
    };
    let value = match gmr_json::parse(body) {
        Ok(v) => v,
        Err(e) => return Served::plain(400, http::error_body(&format!("invalid JSON: {e}"))),
    };
    let sreq = match parse_sweep_request(&value) {
        Ok(r) => r,
        Err(msg) => return Served::plain(400, http::error_body(&msg)),
    };
    let table = format!("scn:{}", sreq.scenario);
    let Some(scn) = shared.scenarios.get(&sreq.scenario) else {
        return Served::tagged(
            404,
            http::error_body(&format!("no scenario {:?}", sreq.scenario)),
            &sreq.model,
            &table,
        );
    };
    let Some(hot) = shared.registry.touch(&sreq.model) else {
        return Served::tagged(
            404,
            http::error_body(&format!("no model {:?}", sreq.model)),
            &sreq.model,
            &table,
        );
    };
    let start_us = gmr_obsv::now_us();
    let t0 = Instant::now();
    let summaries = run_sweep(&scn, &hot.system, &sreq);
    let sim_us = t0.elapsed().as_micros() as u64;
    gmr_obsv::span::record_external("scn.sweep", start_us, sim_us, Some(ctx.trace));
    shared.metrics.scn_sweeps.inc();
    shared.metrics.scn_variants.add(sreq.variants as u64);
    let mut served = Served::tagged(
        200,
        render_sweep(&sreq, scn.days, &summaries),
        &sreq.model,
        &table,
    );
    served.batch = sreq.variants as u64;
    served.sim_us = sim_us;
    served
}

fn simulate(req: &Request, shared: &Shared, sim_tx: &SyncSender<SimJob>, ctx: TraceCtx) -> Served {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Served::plain(400, http::error_body("body is not UTF-8")),
    };
    let value = match gmr_json::parse(body) {
        Ok(v) => v,
        Err(e) => return Served::plain(400, http::error_body(&format!("invalid JSON: {e}"))),
    };
    let request = match crate::batch::parse_sim_request(&value) {
        Ok(r) => r,
        Err(msg) => return Served::plain(400, http::error_body(&msg)),
    };
    let model_name = request.model.clone();
    let table = match &request.source {
        ForcingSource::Ref(name) => name.clone(),
        ForcingSource::Inline(_) => "(inline)".to_string(),
    };
    let Some(model) = shared.registry.get(&request.model) else {
        return Served::tagged(
            404,
            http::error_body(&format!("no model {:?}", request.model)),
            &model_name,
            &table,
        );
    };
    let mode = request.mode;
    let (reply, outcome_rx) = mpsc::channel::<SimOutcome>();
    let job = SimJob {
        model,
        request,
        ctx,
        enqueued: Instant::now(),
        reply,
    };
    match sim_tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            // Bounded queue full: shed explicitly rather than park the
            // client behind an unbounded backlog.
            return Served::tagged(
                429,
                http::error_body("simulation queue full"),
                &model_name,
                &table,
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            return Served::tagged(
                503,
                http::error_body("simulator is shut down"),
                &model_name,
                &table,
            );
        }
    }
    match outcome_rx.recv() {
        Ok(SimOutcome {
            result,
            batch,
            queue_us,
            sim_us,
        }) => {
            let mut served = match result {
                Ok(output) => Served {
                    batch: batch as u64,
                    ..Served::tagged(
                        200,
                        render_output(&model_name, &output, mode, batch),
                        &model_name,
                        &table,
                    )
                },
                Err((status, msg)) => {
                    Served::tagged(status, http::error_body(&msg), &model_name, &table)
                }
            };
            served.queue_us = queue_us;
            served.sim_us = sim_us;
            served
        }
        Err(_) => Served::tagged(
            503,
            http::error_body("simulator dropped the job"),
            &model_name,
            &table,
        ),
    }
}

/// The `/metrics` body: the counter/histogram snapshot plus the model
/// registry's hot-tier statistics, one flat JSON object so the gateway
/// rollup (and `jq`-less shell checks) can sum fields across backends.
fn metrics_body(metrics: &ServeMetrics, registry: &ModelRegistry) -> String {
    let mut body = snapshot_json(&metrics.registry.snapshot());
    let stats = registry.stats();
    debug_assert!(body.ends_with('}'));
    body.pop();
    if body.len() > 1 {
        body.push_str(", ");
    }
    body.push_str(&format!(
        "\"registry.models\": {}, \"registry.hot_cap\": {}, \"registry.hot_resident\": {}, \
         \"registry.hot_hits\": {}, \"registry.hot_misses\": {}, \
         \"registry.hot_evictions\": {}, \"registry.prefix_bytes\": {}}}",
        registry.len(),
        registry.hot_cap(),
        stats.resident,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.prefix_bytes,
    ));
    body
}

fn push_series(o: &mut String, key: &str, xs: &[f64]) {
    o.push('"');
    o.push_str(key);
    o.push_str("\": [");
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        push_f64(o, x);
    }
    o.push(']');
}

fn push_summary(o: &mut String, bphy: &[f64], bzoo: &[f64]) {
    let n = bphy.len().max(1) as f64;
    let mean = bphy.iter().sum::<f64>() / n;
    let max = bphy.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    o.push_str("\"final\": [");
    push_f64(o, bphy.last().copied().unwrap_or(f64::NAN));
    o.push_str(", ");
    push_f64(o, bzoo.last().copied().unwrap_or(f64::NAN));
    o.push_str("], \"mean_bphy\": ");
    push_f64(o, mean);
    o.push_str(", \"max_bphy\": ");
    push_f64(o, max);
}

/// Render the `/simulate` response body.
fn render_output(model: &str, output: &SimOutput, mode: Mode, batch: usize) -> Vec<u8> {
    let mut o = String::from("{\"model\": ");
    push_escaped(&mut o, model);
    o.push_str(&format!(", \"batch\": {batch}, "));
    match output {
        SimOutput::Single { bphy, bzoo } => {
            o.push_str(&format!("\"days\": {}, ", bphy.len()));
            match mode {
                Mode::Series => {
                    push_series(&mut o, "bphy", bphy);
                    o.push_str(", ");
                    push_series(&mut o, "bzoo", bzoo);
                }
                Mode::Summary => push_summary(&mut o, bphy, bzoo),
            }
        }
        SimOutput::Network {
            stations,
            bphy,
            bzoo,
        } => {
            let days = bphy.first().map(Vec::len).unwrap_or(0);
            o.push_str(&format!("\"days\": {days}, \"stations\": ["));
            for (i, name) in stations.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str("{\"name\": ");
                push_escaped(&mut o, name);
                o.push_str(", ");
                match mode {
                    Mode::Series => {
                        push_series(&mut o, "bphy", &bphy[i]);
                        o.push_str(", ");
                        push_series(&mut o, "bzoo", &bzoo[i]);
                    }
                    Mode::Summary => push_summary(&mut o, &bphy[i], &bzoo[i]),
                }
                o.push('}');
            }
            o.push(']');
        }
    }
    o.push_str("}\n");
    o.into_bytes()
}

/// Tiny blocking client for tests and one-shot `ci.sh` smoke checks: one
/// request per call over a fresh connection. Anything issuing sequential
/// requests should hold a [`Client`] instead.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_request(&mut stream, method, path, body, true)?;
    read_response(&mut BufReader::new(stream))
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
/// sequential requests, reconnecting only when the server closes it (or
/// a reused connection turns out to be stale, in which case the request
/// is retried once on a fresh one). This is what `gmr-serve request`,
/// the gateway's backend pool and the bench harness drive — connecting
/// per call costs a handshake round-trip per request and floods the
/// accept queue with one-shot connections.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr`; connects lazily on first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a live connection is currently held (test/introspection).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().unwrap())
    }

    /// Issue one request, reusing the held connection when possible.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let reused = self.conn.is_some();
        let r = self.exchange(method, path, body);
        match r {
            Ok(resp) => {
                if resp.close {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) if reused => {
                // A kept-alive connection can die between requests (server
                // idle-closed it, or restarted). Retry exactly once on a
                // fresh connection; a failure there is real.
                self.conn = None;
                let resp = self.exchange(method, path, body)?;
                if resp.close {
                    self.conn = None;
                }
                let _ = e;
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let conn = self.connect()?;
        write_request(&mut conn.get_ref(), method, path, body, false)?;
        read_response_full(conn)
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

/// [`write_request`] carrying an `X-Gmr-Trace` header: the gateway's
/// backend pool propagates its hop context downstream with this.
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
pub fn read_response(reader: &mut impl io::BufRead) -> io::Result<(u16, Vec<u8>)> {
    read_response_full(reader).map(|r| (r.status, r.body))
}

/// Read one response, keeping the headers the cluster path needs
/// (`Retry-After` for 429 propagation, `Connection` for pool management).
pub fn read_response_full(reader: &mut impl io::BufRead) -> io::Result<Response> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
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
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let t = line.trim_end_matches(['\r', '\n']);
        if t.is_empty() {
            break;
        }
        if let Some((k, v)) = t.split_once(':') {
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
    io::Read::read_exact(reader, &mut body)?;
    Ok(Response {
        status,
        body,
        retry_after,
        close,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tag `endpoint_tag` can produce is a member of [`ROUTE_TAGS`]
    /// (so it has a pre-registered per-route histogram), and every served
    /// endpoint maps to its *own* tag rather than falling through to
    /// `(other)` — the regression that used to leave new routes without
    /// per-route latency attribution.
    #[test]
    fn route_tags_cover_dispatch() {
        for path in [
            "/healthz",
            "/models",
            "/simulate",
            "/scenarios",
            "/sweep",
            "/metrics",
        ] {
            let tag = endpoint_tag(path);
            assert_eq!(tag, path, "{path} must have its own route tag");
            assert!(ROUTE_TAGS.contains(&tag));
            // Query strings route to the same tag.
            assert_eq!(endpoint_tag(&format!("{path}?x=1")), tag);
        }
        assert_eq!(endpoint_tag("/nope"), "(other)");
        assert!(ROUTE_TAGS.contains(&"(other)"));
    }

    /// The per-route histograms land in the `/metrics` snapshot under
    /// their route names.
    #[test]
    fn route_histograms_are_registered() {
        let m = ServeMetrics::new();
        m.record_route("/sweep", 123);
        m.record_route("(other)", 9);
        m.record_route("(not-a-tag)", 7); // ignored, not a panic
        let snap = snapshot_json(&m.registry.snapshot());
        for tag in ROUTE_TAGS {
            assert!(
                snap.contains(&format!("serve.route.{tag}.latency_us")),
                "missing histogram for {tag} in {snap}"
            );
        }
    }
}
