//! The backend service: model simulation over HTTP.
//!
//! The server is a `Service` on the crate's connection runtime
//! (`runtime.rs`), which owns the listener, the bounded connection queue,
//! the workers, keep-alive and the drain. What is the backend's own:
//!
//! ```text
//!   runtime worker ──try_send──► sim queue (bounded, sync_channel) ──► batcher (self-clocking)
//! ```
//!
//! Backpressure is explicit at both queues: a full connection queue gets
//! an immediate `429` written by the runtime's acceptor, and a full
//! simulation queue turns into a `429` from the worker. The server sheds
//! load; it never silently drops or indefinitely parks a request.
//!
//! Graceful drain: [`ServerHandle::shutdown`] (or a SIGTERM observed by
//! the binary) drains the runtime — workers finish the connections
//! already queued plus whatever request is mid-flight — and then the
//! batcher flushes its final batch, which it does once every worker has
//! exited and dropped its queue handle. `shutdown` joins every thread
//! before returning.

use crate::batch::{
    parse_sim_request, run_batcher, ForcingSource, Mode, SimJob, SimOutcome, SimOutput, Tables,
};
use crate::http::Request;
use crate::registry::ModelRegistry;
use crate::runtime::{routes, ConnMetrics, Labels, Limits, Runtime, Served, Service};
use crate::scenario::{parse_sweep_request, render_sweep, run_sweep, ScenarioStore};
use crate::trace::TraceCtx;
use gmr_json::{push_escaped, push_f64};
use gmr_obsv::journal::Event;
use gmr_obsv::metrics::{snapshot_json, Counter, Histogram, Registry, Sample};
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

pub use crate::client::{
    http_request, read_response, read_response_full, write_request, write_request_traced, Client,
    Response,
};

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
    /// it is closed with `408`. `max_idle_reads × read_timeout` is also
    /// how long one request may take to arrive, from its first byte.
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

/// The backend's names: unprefixed route tags, `serve.*` metrics.
pub(crate) const LABELS: Labels = Labels {
    routes: routes!(""),
    accept: "(accept)",
    malformed: "(malformed)",
    ns: "serve",
    shed_body: "connection queue full",
};

/// Serving-stack metrics, exposed verbatim by `/metrics`.
struct ServeMetrics {
    /// The registry `/metrics` snapshots.
    registry: Registry,
    /// What the runtime records: `serve.requests_total`,
    /// `serve.shed_total`, `serve.latency_us` and the per-route
    /// histograms.
    conn: ConnMetrics,
    /// Coalesced sweep width per `/simulate` response.
    batch: Arc<Histogram>,
    /// Scenarios freshly admitted through `POST /scenarios`.
    scn_admitted: Arc<Counter>,
    /// `/sweep` requests executed.
    scn_sweeps: Arc<Counter>,
    /// Ensemble variants simulated across all sweeps.
    scn_variants: Arc<Counter>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = Registry::new();
        ServeMetrics {
            conn: ConnMetrics::new(&registry, &LABELS),
            batch: registry.histogram("serve.batch_size"),
            scn_admitted: registry.counter("scn.admitted_total"),
            scn_sweeps: registry.counter("scn.sweeps_total"),
            scn_variants: registry.counter("scn.sweep_variants_total"),
            registry,
        }
    }
}

/// The backend service the runtime serves.
struct Backend {
    registry: Arc<ModelRegistry>,
    tables: Arc<Tables>,
    /// Runtime-admitted scenarios; the same store the tables resolve
    /// `scn:` forcing refs through.
    scenarios: Arc<ScenarioStore>,
    metrics: ServeMetrics,
}

/// A configured server, ready to start.
pub struct Server {
    config: ServerConfig,
    registry: ModelRegistry,
    tables: Tables,
}

/// A running server: its runtime plus the batcher thread `shutdown`
/// drains last.
pub struct ServerHandle {
    runtime: Runtime<Backend>,
    batcher: JoinHandle<()>,
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
        let config = self.config;
        let mut registry = self.registry;
        registry.set_hot_cap(config.hot_models);
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
        let backend = Backend {
            registry: Arc::new(registry),
            tables: Arc::new(tables),
            scenarios,
            metrics: ServeMetrics::new(),
        };
        let (sim_tx, sim_rx) = mpsc::sync_channel::<SimJob>(config.sim_queue.max(1));
        let batcher_tables = Arc::clone(&backend.tables);
        let batcher_registry = Arc::clone(&backend.registry);
        let batcher = thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || run_batcher(sim_rx, batcher_tables, batcher_registry))?;
        // Each worker owns one sender and `sim_tx` itself is moved into
        // the last one, so the batcher exits exactly when the last worker
        // does.
        let mut workers = vec![sim_tx.clone(); config.workers.max(1) - 1];
        workers.push(sim_tx);
        let limits = Limits {
            conn_queue: config.conn_queue,
            read_timeout: config.read_timeout,
            max_idle_reads: config.max_idle_reads,
        };
        let runtime = Runtime::start(&config.addr, limits, backend, workers)?;
        gmr_obsv::emit(Event::Note {
            name: "serve.listen",
            msg: format!("gmr-serve listening on {}", runtime.addr()),
        });
        Ok(ServerHandle { runtime, batcher })
    }
}

impl ServerHandle {
    /// The bound address (real port even when config said `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr()
    }

    /// Snapshot the serving metrics as JSON (same body `/metrics` serves).
    pub fn metrics_json(&self) -> String {
        self.runtime.service().metrics_body()
    }

    /// Begin a graceful drain and block until every thread has exited:
    /// stop accepting, serve what is queued and in flight, flush the
    /// batcher, join.
    pub fn shutdown(self) {
        self.runtime.shutdown();
        let _ = self.batcher.join();
    }
}

impl Service for Backend {
    /// The worker's handle on the simulation queue.
    type Worker = SyncSender<SimJob>;
    const LABELS: Labels = LABELS;

    fn conn_metrics(&self) -> &ConnMetrics {
        &self.metrics.conn
    }

    fn dispatch(
        &self,
        sim_tx: &mut SyncSender<SimJob>,
        req: &Request,
        ctx: TraceCtx,
        draining: bool,
    ) -> Served {
        let _sp = gmr_obsv::span_fine!("serve.dispatch", ctx.trace);
        let path = req.path.split('?').next().unwrap_or(&req.path);
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => {
                let body = format!(
                    "{{\"ok\": true, \"models\": {}, \"draining\": {draining}}}\n",
                    self.registry.len(),
                );
                Served::plain(200, body.into_bytes())
            }
            ("GET", "/models") => Served::plain(200, self.registry.render_json().into_bytes()),
            ("GET", "/metrics") => Served::plain(200, self.metrics_body().into_bytes()),
            ("POST", "/simulate") => self.simulate(req, sim_tx, ctx),
            ("POST", "/scenarios") => self.scenarios_admit(req),
            ("GET", "/scenarios") => Served::plain(200, self.scenarios.render_json().into_bytes()),
            ("POST", "/sweep") => self.sweep(req, ctx),
            ("GET", "/simulate" | "/sweep") | ("POST", "/healthz" | "/models" | "/metrics") => {
                Served::error(405, "method not allowed for this endpoint")
            }
            _ => Served::error(404, "no such endpoint"),
        }
    }

    fn record(&self, _tag: &'static str, served: &Served, _dur_us: u64) {
        if served.batch > 0 {
            self.metrics.batch.record(served.batch);
        }
    }
}

impl Backend {
    /// `POST /scenarios`: lint-gate and admit a `gmr-scenario/v1` spec. The
    /// store is append-only and name-immutable — an identical spec re-admits
    /// as a no-op (`"fresh": false`), a different spec under a taken name is
    /// `409` — so `scn:` refs and the gateway's scenario routing stay stable.
    fn scenarios_admit(&self, req: &Request) -> Served {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return Served::error(400, "body is not UTF-8");
        };
        match self.scenarios.admit(body) {
            Ok((scn, fresh)) => {
                if fresh {
                    self.metrics.scn_admitted.inc();
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
            Err((status, msg)) => Served::error(status, &msg),
        }
    }

    /// `POST /sweep`: fan one request into `variants` jittered forcings of an
    /// admitted scenario, execute them through lock-step ensemble lanes, and
    /// answer with per-variant summary statistics. Runs inline on the worker:
    /// a sweep never coalesces with other requests, so it leaves
    /// [`Served::batch`] unset — its `access` event reads `batched: false`
    /// and `serve.batch_size` keeps only `/simulate` batch widths.
    fn sweep(&self, req: &Request, ctx: TraceCtx) -> Served {
        let sreq = match req.json().and_then(|v| parse_sweep_request(&v)) {
            Ok(r) => r,
            Err(msg) => return Served::error(400, &msg),
        };
        let table = format!("scn:{}", sreq.scenario);
        let Some(scn) = self.scenarios.get(&sreq.scenario) else {
            let msg = format!("no scenario {:?}", sreq.scenario);
            return Served::error(404, &msg).tagged(&sreq.model, &table);
        };
        let Some(hot) = self.registry.touch(&sreq.model) else {
            let msg = format!("no model {:?}", sreq.model);
            return Served::error(404, &msg).tagged(&sreq.model, &table);
        };
        let start_us = gmr_obsv::now_us();
        let t0 = Instant::now();
        let summaries = run_sweep(&scn, &hot.system, &sreq);
        let sim_us = t0.elapsed().as_micros() as u64;
        gmr_obsv::span::record_external("scn.sweep", start_us, sim_us, Some(ctx.trace));
        self.metrics.scn_sweeps.inc();
        self.metrics.scn_variants.add(sreq.variants as u64);
        Served {
            sim_us,
            ..Served::plain(200, render_sweep(&sreq, scn.days, &summaries))
        }
        .tagged(&sreq.model, &table)
    }

    fn simulate(&self, req: &Request, sim_tx: &SyncSender<SimJob>, ctx: TraceCtx) -> Served {
        let request = match req.json().and_then(|v| parse_sim_request(&v)) {
            Ok(r) => r,
            Err(msg) => return Served::error(400, &msg),
        };
        let model_name = request.model.clone();
        let table = match &request.source {
            ForcingSource::Ref(name) => name.clone(),
            ForcingSource::Inline(_) => "(inline)".to_string(),
        };
        let fail = |status, msg: &str| Served::error(status, msg).tagged(&model_name, &table);
        let Some(model) = self.registry.get(&request.model) else {
            return fail(404, &format!("no model {:?}", request.model));
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
            // Bounded queue full: shed explicitly rather than park the
            // client behind an unbounded backlog.
            Err(TrySendError::Full(_)) => return fail(429, "simulation queue full"),
            Err(TrySendError::Disconnected(_)) => return fail(503, "simulator is shut down"),
        }
        let Ok(SimOutcome {
            result,
            batch,
            queue_us,
            sim_us,
        }) = outcome_rx.recv()
        else {
            return fail(503, "simulator dropped the job");
        };
        let served = match result {
            Ok(output) => Served {
                batch: batch as u64,
                ..Served::plain(200, render_output(&model_name, &output, mode, batch))
                    .tagged(&model_name, &table)
            },
            Err((status, msg)) => fail(status, &msg),
        };
        Served {
            queue_us,
            sim_us,
            ..served
        }
    }

    /// The `/metrics` body: one snapshot of the counters and histograms
    /// plus the model registry's hot-tier figures, sorted by name, so the
    /// gateway can merge it with other backends' into its `fleet` view.
    fn metrics_body(&self) -> String {
        let registry = &self.registry;
        let stats = registry.stats();
        let mut snapshot = self.metrics.registry.snapshot();
        snapshot.extend(
            [
                ("registry.models", registry.len() as u64),
                ("registry.hot_cap", registry.hot_cap() as u64),
                ("registry.hot_resident", stats.resident),
                ("registry.hot_hits", stats.hits),
                ("registry.hot_misses", stats.misses),
                ("registry.hot_evictions", stats.evictions),
                ("registry.prefix_bytes", stats.prefix_bytes),
            ]
            .map(|(name, v)| (name.to_string(), Sample::Counter(v))),
        );
        snapshot.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        snapshot_json(&snapshot)
    }
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

/// One trajectory's fields: its `bphy`/`bzoo` series, or their summary.
fn push_trajectory(o: &mut String, mode: Mode, bphy: &[f64], bzoo: &[f64]) {
    match mode {
        Mode::Series => {
            push_series(o, "bphy", bphy);
            o.push_str(", ");
            push_series(o, "bzoo", bzoo);
        }
        Mode::Summary => push_summary(o, bphy, bzoo),
    }
}

/// Render the `/simulate` response body.
fn render_output(model: &str, output: &SimOutput, mode: Mode, batch: usize) -> Vec<u8> {
    let mut o = String::from("{\"model\": ");
    push_escaped(&mut o, model);
    o.push_str(&format!(", \"batch\": {batch}, "));
    match output {
        SimOutput::Single { bphy, bzoo } => {
            o.push_str(&format!("\"days\": {}, ", bphy.len()));
            push_trajectory(&mut o, mode, bphy, bzoo);
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
                push_trajectory(&mut o, mode, &bphy[i], &bzoo[i]);
                o.push('}');
            }
            o.push(']');
        }
    }
    o.push_str("}\n");
    o.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{route_index, ROUTES};

    /// Both services' labels, by tag prefix.
    fn both() -> [(&'static str, &'static Labels); 2] {
        [("", &LABELS), ("gw:", &crate::gateway::LABELS)]
    }

    /// Every served endpoint maps to its *own* route tag, under both the
    /// backend's and the gateway's prefix, rather than falling through to
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
            let i = route_index(path);
            // Query strings route to the same tag.
            assert_eq!(route_index(&format!("{path}?x=1")), i);
            for (prefix, labels) in both() {
                assert_eq!(
                    labels.routes[i],
                    format!("{prefix}{path}"),
                    "{path} must have its own route tag"
                );
            }
        }
        assert_eq!(route_index("/nope"), ROUTES - 1);
        for (prefix, labels) in both() {
            assert_eq!(labels.routes[ROUTES - 1], format!("{prefix}(other)"));
            assert_eq!(labels.accept, format!("{prefix}(accept)"));
            assert_eq!(labels.malformed, format!("{prefix}(malformed)"));
        }
    }

    /// The per-route histograms land in each service's `/metrics`
    /// snapshot under their route names.
    #[test]
    fn route_histograms_are_registered() {
        for (_, labels) in both() {
            let registry = Registry::new();
            let m = ConnMetrics::new(&registry, labels);
            m.record(route_index("/sweep"), 200, 123);
            m.record(route_index("/nope"), 429, 9);
            let snap = snapshot_json(&registry.snapshot());
            for tag in labels.routes {
                assert!(
                    snap.contains(&format!("{}.route.{tag}.latency_us", labels.ns)),
                    "missing histogram for {tag} in {snap}"
                );
            }
            assert!(
                snap.contains(&format!("\"{}.shed_total\": 1", labels.ns)),
                "{snap}"
            );
        }
    }
}
