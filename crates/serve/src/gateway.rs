//! Consistent-hash routing gateway for a sharded serving cluster.
//!
//! The gateway is a thin HTTP proxy in front of N backend `gmr-serve`
//! processes. `/simulate` requests are routed by **(model, table)**: the
//! pair is hashed onto a [`Ring`] of virtual nodes, so one backend owns
//! each pair and its hot tier / prefix caches only ever hold its shard.
//! That pinning is the whole scaling story — backends don't share memory,
//! they share *nothing*, and aggregate hot-cache capacity grows linearly
//! with the backend count (see DESIGN.md "Cluster serving").
//!
//! Discipline preserved end to end:
//!
//! * **Bounded queues** — the gateway has its own accept queue and sheds
//!   with `429` + `Retry-After` exactly like a backend; a backend's `429`
//!   (with its `Retry-After`) is propagated verbatim, never retried
//!   against a different backend (that would break pinning under the very
//!   overload that makes pinning matter).
//! * **Bit-identity** — `/simulate` bodies are forwarded untouched both
//!   ways; the response bytes are the backend's bytes.
//! * **Failover** — a transport error marks the backend dead and the
//!   request walks to the next live backend on the ring (at most once per
//!   candidate). The supervisor's health loop revives the primary, after
//!   which the pair routes back to it. Requests drain or shed; they never
//!   hang.
//!
//! The gateway is a `Service` on the same connection runtime as the
//! backend (`runtime.rs`: acceptor, bounded queue, workers, keep-alive,
//! drain), and talks to backends through the crate's one HTTP client,
//! [`Client`]: each gateway worker holds one per backend slot.

use crate::client::{Client, Response};
use crate::http::Request;
use crate::runtime::{routes, ConnMetrics, Labels, Limits, Runtime, Served, Service};
use crate::trace::TraceCtx;
use gmr_json::Value;
use gmr_obsv::journal::Event;
use gmr_obsv::metrics::{merge_snapshots, snapshot_json, Counter, Histogram, Registry};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual nodes per backend on the hash ring. Enough that the keyspace
/// splits evenly across a handful of backends (the paper-scale cluster);
/// cheap enough that ring construction is trivial.
pub const VNODES: usize = 64;

/// 64-bit FNV-1a — stable across processes and releases, which is what
/// makes routing deterministic for tests and cache-warm restarts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over backend *slot indexes*. The ring is built
/// once from the backend count: slot identities (not ephemeral ports) are
/// hashed, so a backend restarted on a new port keeps its keyspace.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(vnode hash, backend index)`, sorted by hash.
    points: Vec<(u64, u32)>,
    backends: usize,
}

impl Ring {
    /// Build the ring for `backends` slots.
    pub fn new(backends: usize) -> Ring {
        let mut points = Vec::with_capacity(backends * VNODES);
        for b in 0..backends {
            for v in 0..VNODES {
                points.push((fnv1a(format!("backend-{b}/vnode-{v}").as_bytes()), b as u32));
            }
        }
        points.sort_unstable();
        Ring { points, backends }
    }

    /// The routing key for a simulate request: model name and forcing
    /// table, NUL-joined (neither may contain NUL — model names come from
    /// artifact files, table names from the hosted-table map).
    pub fn key(model: &str, table: &str) -> String {
        format!("{model}\0{table}")
    }

    /// Backend preference order for `key`: the owner first (first vnode
    /// clockwise of the key's hash), then each distinct backend in ring
    /// order — the failover sequence.
    pub fn preference(&self, key: &str) -> Vec<u32> {
        let h = fnv1a(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut order = Vec::with_capacity(self.backends);
        let mut seen = vec![false; self.backends];
        for i in 0..self.points.len() {
            let (_, b) = self.points[(start + i) % self.points.len()];
            if !seen[b as usize] {
                seen[b as usize] = true;
                order.push(b);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }
}

/// One backend's routing state, shared between the gateway (which reads
/// the address and flips `alive` off on transport errors) and the
/// supervisor (which sets the address on spawn/restart and flips `alive`
/// both ways from health probes).
#[derive(Debug, Default)]
pub struct BackendSlot {
    addr: Mutex<Option<SocketAddr>>,
    alive: AtomicBool,
}

impl BackendSlot {
    /// Record a (re)spawned backend's bound address and mark it live.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().unwrap() = Some(addr);
        self.alive.store(true, Ordering::SeqCst);
    }

    /// The address, when the slot is believed live.
    pub fn addr(&self) -> Option<SocketAddr> {
        if !self.is_alive() {
            return None;
        }
        *self.addr.lock().unwrap()
    }

    /// The address regardless of liveness (health probes need it).
    pub fn addr_any(&self) -> Option<SocketAddr> {
        *self.addr.lock().unwrap()
    }

    /// Whether the slot is believed live.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Mark the slot dead (transport error or failed health probe).
    pub fn mark_down(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Mark the slot live again (health probe succeeded).
    pub fn mark_up(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }
}

/// Gateway tuning; same knobs and defaults as the backend server where
/// they overlap.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Proxy worker threads.
    pub workers: usize,
    /// Accepted-connection queue bound; beyond it the gateway sheds `429`.
    pub conn_queue: usize,
    /// Per-read socket timeout on client connections.
    pub read_timeout: Duration,
    /// Idle reads tolerated before a keep-alive client is closed (`408`).
    /// `max_idle_reads × read_timeout` is also how long one request may
    /// take to arrive, from its first byte.
    pub max_idle_reads: u32,
    /// Socket timeout for backend exchanges. Bounds how long a proxied
    /// request can hold a gateway worker — "drain or 429, never hang".
    pub backend_timeout: Duration,
    /// SLO latency target for proxied `/simulate` requests, milliseconds:
    /// a request is "good" when it returns 200 within this bound. Drives
    /// the `slo` section of the gateway's `/metrics`.
    pub slo_target_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            conn_queue: 64,
            read_timeout: Duration::from_millis(250),
            max_idle_reads: 40,
            backend_timeout: Duration::from_secs(30),
            slo_target_ms: 250,
        }
    }
}

/// The gateway's names: `gw:`-prefixed route tags, `gateway.*` metrics.
pub(crate) const LABELS: Labels = Labels {
    routes: routes!("gw:"),
    accept: "gw:(accept)",
    malformed: "gw:(malformed)",
    ns: "gateway",
    shed_body: "gateway connection queue full",
};

/// Gateway metrics, exposed by its `/metrics` beside the fleet snapshot.
struct GatewayMetrics {
    registry: Registry,
    /// What the runtime records: `gateway.requests_total`,
    /// `gateway.shed_total`, `gateway.latency_us` and per-route latency.
    conn: ConnMetrics,
    proxied: Arc<Counter>,
    failovers: Arc<Counter>,
    backend_down: Arc<Counter>,
    /// Per-backend proxied-exchange latency, index = slot.
    backend_latency: Vec<Arc<Histogram>>,
    /// Proxied `/simulate` requests answered 200 within the SLO target.
    slo_good: Arc<Counter>,
    /// All proxied `/simulate` requests (the SLO denominator).
    slo_total: Arc<Counter>,
}

impl GatewayMetrics {
    fn new(backends: usize) -> GatewayMetrics {
        let registry = Registry::new();
        GatewayMetrics {
            conn: ConnMetrics::new(&registry, &LABELS),
            proxied: registry.counter("gateway.proxied_total"),
            failovers: registry.counter("gateway.failovers_total"),
            backend_down: registry.counter("gateway.backend_down_total"),
            backend_latency: (0..backends)
                .map(|b| registry.histogram(&format!("gateway.backend.{b}.latency_us")))
                .collect(),
            slo_good: registry.counter("gateway.slo_good"),
            slo_total: registry.counter("gateway.slo_total"),
            registry,
        }
    }
}

/// A configured gateway, ready to start over a set of backend slots.
pub struct Gateway {
    config: GatewayConfig,
    slots: Arc<Vec<BackendSlot>>,
}

/// A running gateway.
pub struct GatewayHandle {
    runtime: Runtime<Proxy>,
}

impl Gateway {
    /// A gateway routing over `slots` (one per supervised backend).
    pub fn new(config: GatewayConfig, slots: Arc<Vec<BackendSlot>>) -> Gateway {
        Gateway { config, slots }
    }

    /// Bind, spawn acceptor + workers, return a handle.
    pub fn start(self) -> io::Result<GatewayHandle> {
        let config = self.config;
        let backends = self.slots.len();
        let proxy = Proxy {
            ring: Ring::new(backends),
            metrics: GatewayMetrics::new(backends),
            slots: self.slots,
            backend_timeout: config.backend_timeout,
            slo_target_ms: config.slo_target_ms,
        };
        let pools = (0..config.workers.max(1))
            .map(|_| (0..backends).map(|_| None).collect())
            .collect();
        let limits = Limits {
            conn_queue: config.conn_queue,
            read_timeout: config.read_timeout,
            max_idle_reads: config.max_idle_reads,
        };
        let runtime = Runtime::start(&config.addr, limits, proxy, pools)?;
        gmr_obsv::emit(Event::Note {
            name: "gateway.listen",
            msg: format!("gateway listening on {}", runtime.addr()),
        });
        Ok(GatewayHandle { runtime })
    }
}

impl GatewayHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr()
    }

    /// Graceful drain: stop accepting, finish queued connections, join.
    pub fn shutdown(self) {
        self.runtime.shutdown();
    }
}

/// One gateway worker's backend connections: a keep-alive [`Client`] per
/// slot, created on first use and replaced when the slot's address moves
/// (a restarted backend). A worker owns its clients, so no socket is
/// shared between threads.
type Pool = Vec<Option<Client>>;

/// The gateway service the runtime serves.
struct Proxy {
    slots: Arc<Vec<BackendSlot>>,
    ring: Ring,
    metrics: GatewayMetrics,
    backend_timeout: Duration,
    slo_target_ms: u64,
}

/// A backend's response, relayed with the slot that gave it and how long
/// the exchange took.
fn relayed(resp: Response, backend: usize, t0: Instant) -> Served {
    Served {
        status: resp.status,
        body: resp.body,
        retry_after: resp.retry_after,
        sim_us: t0.elapsed().as_micros() as u64,
        backend: Some(backend),
        ..Served::default()
    }
}

impl Service for Proxy {
    type Worker = Pool;
    const LABELS: Labels = LABELS;

    fn conn_metrics(&self) -> &ConnMetrics {
        &self.metrics.conn
    }

    fn dispatch(&self, pool: &mut Pool, req: &Request, ctx: TraceCtx, draining: bool) -> Served {
        let path = req.path.split('?').next().unwrap_or(&req.path);
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => {
                let alive = self.slots.iter().filter(|s| s.is_alive()).count();
                let body = format!(
                    "{{\"ok\": {}, \"backends\": {}, \"alive\": {alive}, \"draining\": {draining}}}\n",
                    alive > 0,
                    self.slots.len(),
                );
                Served::plain(200, body.into_bytes())
            }
            ("GET", "/models" | "/scenarios") => self.forward_any(pool, path, ctx),
            ("GET", "/metrics") => Served::plain(200, self.fleet_metrics(pool)),
            ("POST", "/simulate") => self.proxy_pinned(pool, req, path, ctx, |v| {
                // Inline-forcings requests have no table name; they hash by
                // model alone so repeats still pin to one backend's hot tier.
                Ok(v.get("forcings_ref")
                    .and_then(Value::as_str)
                    .unwrap_or("(inline)")
                    .to_string())
            }),
            ("POST", "/scenarios") => self.broadcast_scenarios(pool, req, ctx),
            // Sweeps pin by (model, `scn:<scenario>`), so repeated sweeps
            // of one scenario land on the backend whose hot tier and
            // prefix caches already hold it.
            ("POST", "/sweep") => self.proxy_pinned(pool, req, path, ctx, |v| {
                let scenario = v
                    .get("scenario")
                    .and_then(Value::as_str)
                    .ok_or("missing \"scenario\"")?;
                Ok(format!("{}{scenario}", crate::scenario::SCN_REF_PREFIX))
            }),
            _ => Served::error(404, "no such endpoint"),
        }
    }

    fn record(&self, tag: &'static str, served: &Served, dur_us: u64) {
        if let Some(b) = served.backend {
            self.metrics.backend_latency[b].record(served.sim_us);
        }
        if tag == "gw:/simulate" {
            self.metrics.slo_total.inc();
            if served.status == 200 && dur_us <= self.slo_target_ms * 1000 {
                self.metrics.slo_good.inc();
            }
        }
    }
}

impl Proxy {
    /// This worker's pooled client for backend slot `b`, now at `addr`.
    fn client<'p>(&self, pool: &'p mut Pool, b: usize, addr: SocketAddr) -> &'p mut Client {
        let slot = &mut pool[b];
        if slot.as_ref().map(Client::addr) != Some(addr) {
            *slot = Some(Client::with_timeout(addr, self.backend_timeout));
        }
        slot.as_mut().expect("client just ensured")
    }

    /// One exchange with backend slot `b`, relayed. `None` when the slot
    /// is down or the exchange fails, which marks it down.
    fn relay(
        &self,
        pool: &mut Pool,
        b: usize,
        method: &str,
        path: &str,
        body: &[u8],
        trace: &str,
    ) -> Option<Served> {
        let addr = self.slots[b].addr()?;
        let t0 = Instant::now();
        match self
            .client(pool, b, addr)
            .request_traced(method, path, body, Some(trace))
        {
            Ok(resp) => Some(relayed(resp, b, t0)),
            Err(_) => {
                self.mark_backend_down(b);
                None
            }
        }
    }

    /// Broadcast one `POST /scenarios` admission to *every* live backend.
    /// Scenario refs are not pinned the way hosted tables are: a sweep for
    /// `(model, scn:name)` and a solo `/simulate` of `scn:name/<v>` hash to
    /// different ring keys, so any backend may be asked to resolve the
    /// scenario — all of them must host it. Admission is idempotent on the
    /// backends, so re-broadcasting after a restart is harmless. The relayed
    /// response is the worst one observed (any backend's rejection wins over
    /// the successes — the caller must not believe a partially-admitted
    /// scenario is servable).
    fn broadcast_scenarios(&self, pool: &mut Pool, req: &Request, ctx: TraceCtx) -> Served {
        let header = ctx.header_value();
        let mut worst: Option<Served> = None;
        for b in 0..self.slots.len() {
            let Some(served) = self.relay(pool, b, "POST", "/scenarios", &req.body, &header) else {
                continue;
            };
            let strictly_worse = worst
                .as_ref()
                .is_none_or(|held| served.status >= 400 && served.status > held.status);
            if strictly_worse {
                worst = Some(served);
            }
        }
        worst.unwrap_or_else(|| Served::error(503, "no live backend"))
    }

    /// Forward a body-less `GET` to the first live backend (all backends
    /// host the same replicated artifacts and broadcast scenarios, so any
    /// will do).
    fn forward_any(&self, pool: &mut Pool, path: &str, ctx: TraceCtx) -> Served {
        let header = ctx.header_value();
        (0..self.slots.len())
            .find_map(|b| self.relay(pool, b, "GET", path, b"", &header))
            .unwrap_or_else(|| Served::error(503, "no live backend"))
    }

    /// Proxy one request pinned by (model, table) consistent hashing,
    /// walking the ring past dead backends. `table_of` derives the table
    /// half of the key from the parsed body (or refuses the body with a
    /// `400` message). A backend's `429` is final (propagated, not failed
    /// over): under overload, spilling a pinned key onto other backends
    /// would evict *their* hot shards and collapse the very cache locality
    /// the ring exists to protect.
    fn proxy_pinned(
        &self,
        pool: &mut Pool,
        req: &Request,
        path: &str,
        ctx: TraceCtx,
        table_of: impl FnOnce(&Value) -> Result<String, &'static str>,
    ) -> Served {
        let _sp = gmr_obsv::span!("gateway.route", ctx.trace);
        let value = match req.json() {
            Ok(v) => v,
            Err(msg) => return Served::error(400, &msg),
        };
        let Some(model) = value.get("model").and_then(Value::as_str) else {
            return Served::error(400, "missing \"model\"");
        };
        let table = match table_of(&value) {
            Ok(t) => t,
            Err(msg) => return Served::error(400, msg),
        };
        let key = Ring::key(model, &table);
        let header = ctx.header_value();
        let mut tried = 0u32;
        for b in self.ring.preference(&key) {
            let b = b as usize;
            if !self.slots[b].is_alive() {
                continue;
            }
            if tried > 0 {
                self.metrics.failovers.inc();
            }
            tried += 1;
            if let Some(served) = self.relay(pool, b, "POST", path, &req.body, &header) {
                self.metrics.proxied.inc();
                return served.tagged(model, &table);
            }
        }
        Served::error(503, "no live backend").tagged(model, &table)
    }

    fn mark_backend_down(&self, b: usize) {
        self.slots[b].mark_down();
        self.metrics.backend_down.inc();
        gmr_obsv::emit(Event::Backend {
            idx: b as u32,
            addr: self.slots[b]
                .addr_any()
                .map(|a| a.to_string())
                .unwrap_or_default(),
            state: "down",
            restarts: 0,
        });
    }
}

/// The availability objective behind the `/metrics` burn rate: 99% of
/// proxied `/simulate` requests good. A burn rate of 1.0 means the error
/// budget is being consumed exactly as fast as it accrues; above 1.0 the
/// SLO will eventually be violated.
const SLO_OBJECTIVE: f64 = 0.99;

impl Proxy {
    /// The cluster `/metrics` document: the gateway's own snapshot under
    /// `"gateway"` (kept apart so its counters are never conflated with
    /// the backends'), every answering backend's snapshot merged under
    /// `"fleet"` ([`merge_snapshots`]), the `"slo"` section, and a
    /// `"backends"` array with each backend's liveness and verbatim
    /// snapshot. Quantiles are left to whoever reads the histograms.
    fn fleet_metrics(&self, pool: &mut Pool) -> Vec<u8> {
        let snapshots: Vec<Option<Value>> = (0..self.slots.len())
            .map(|b| {
                let addr = self.slots[b].addr()?;
                let resp = self
                    .client(pool, b, addr)
                    .request("GET", "/metrics", b"")
                    .ok()?;
                gmr_json::parse(std::str::from_utf8(&resp.body).ok()?).ok()
            })
            .collect();
        let mut body = String::from("{\"gateway\": ");
        body.push_str(&snapshot_json(&self.metrics.registry.snapshot()));
        body.push_str(", \"fleet\": ");
        body.push_str(&snapshot_json(&merge_snapshots(snapshots.iter().flatten())));

        let good = self.metrics.slo_good.get();
        let total = self.metrics.slo_total.get();
        let bad_frac = if total == 0 {
            0.0
        } else {
            (total - good) as f64 / total as f64
        };
        body.push_str(&format!(
            ", \"slo\": {{\"target_ms\": {}, \"good\": {good}, \"total\": {total}, \"burn_rate\": ",
            self.slo_target_ms
        ));
        gmr_json::push_f64(&mut body, bad_frac / (1.0 - SLO_OBJECTIVE));
        body.push('}');

        body.push_str(", \"backends\": [");
        for (b, slot) in self.slots.iter().enumerate() {
            if b > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!(
                "{{\"idx\": {b}, \"alive\": {}, \"addr\": ",
                slot.is_alive()
            ));
            gmr_json::push_escaped(
                &mut body,
                &slot.addr_any().map(|a| a.to_string()).unwrap_or_default(),
            );
            body.push_str(", \"metrics\": ");
            gmr_json::push_value(&mut body, snapshots[b].as_ref().unwrap_or(&Value::Null));
            body.push('}');
        }
        body.push_str("]}");
        body.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routing_is_deterministic_and_balanced() {
        let ring = Ring::new(4);
        let ring2 = Ring::new(4);
        let mut owners = [0usize; 4];
        for m in 0..200 {
            let key = Ring::key(&format!("model-{m}"), "target");
            let pref = ring.preference(&key);
            assert_eq!(pref, ring2.preference(&key), "ring must be stable");
            assert_eq!(pref.len(), 4, "preference covers every backend");
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3], "each backend appears once");
            owners[pref[0] as usize] += 1;
        }
        for (b, &n) in owners.iter().enumerate() {
            assert!(
                (20..=80).contains(&n),
                "backend {b} owns {n}/200 keys — ring is badly unbalanced: {owners:?}"
            );
        }
    }

    #[test]
    fn ring_failover_preserves_other_assignments() {
        // Consistent hashing's point: removing one backend only moves the
        // keys it owned; every other key keeps its owner.
        let ring = Ring::new(4);
        for m in 0..100 {
            let key = Ring::key(&format!("model-{m}"), "t");
            let pref = ring.preference(&key);
            let after: Vec<u32> = pref.iter().copied().filter(|&b| b != 2).collect();
            if pref[0] != 2 {
                assert_eq!(
                    after[0], pref[0],
                    "dropping backend 2 must not move keys it never owned"
                );
            } else {
                assert_eq!(after[0], pref[1], "orphaned keys go to the next vnode");
            }
        }
    }

    #[test]
    fn slot_liveness_gates_addr() {
        let slot = BackendSlot::default();
        assert_eq!(slot.addr(), None);
        let a: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        slot.set_addr(a);
        assert_eq!(slot.addr(), Some(a));
        slot.mark_down();
        assert_eq!(slot.addr(), None, "a dead slot routes nothing");
        assert_eq!(slot.addr_any(), Some(a), "but health probes still can");
        slot.mark_up();
        assert_eq!(slot.addr(), Some(a));
    }
}
