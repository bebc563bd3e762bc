//! Serving-stack benchmark: solo batched-vs-sequential throughput and
//! sharded-cluster scaling over real loopback HTTP, emitted as
//! machine-readable JSON (`gmr-bench-serve/v2`).
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p gmr-bench --bin bench_serve -- [--quick] [--out PATH]
//! cargo run --release -p gmr-bench --bin bench_serve -- --cluster --backends 2 --quick
//! cargo run --release -p gmr-bench --bin bench_serve -- --validate PATH
//! ```
//!
//! Any other argument, a flag missing its value, or a `--backends` that is
//! not an integer >= 2 exits 2 with a usage line.
//!
//! **Solo section** (`--solo`, or default): two client shapes hit one
//! in-process `gmr-serve` server hosting the Table V model:
//!
//! * `sequential` — one keep-alive connection issuing summary-mode
//!   `forcings_ref` requests back to back (each simulation runs solo);
//! * `batched` — the same request mix from 16 concurrent keep-alive
//!   connections, which the batcher coalesces into multi-trajectory
//!   register-VM sweeps.
//!
//! The batcher never waits for company (each flush takes only what
//! queued during the previous one), so the comparison isolates
//! work-sharing; the gate is `batched_speedup >= 2`.
//!
//! **Cluster section** (`--cluster`, or default): real backend processes
//! (the `gmr-serve` binary, spawned and supervised exactly as
//! `gmr-serve cluster` does) behind the consistent-hash gateway, driven
//! with mixed-model traffic over eight distinct artifacts. Every backend
//! runs with a hot-tier cap of `models - 1`, so a single backend cycling
//! all eight models LRU-misses (recompile + prefix resweep) on every
//! touch, while any sharded tier holds its keyspace fully hot — the
//! cache-locality mechanism the ring exists to protect. The gate is
//! aggregate throughput at the top tier over one backend:
//! `cluster_speedup >= 2.5` at four backends (`>= 1.2` for the 2-backend
//! CI shape). An overload probe (one backend, `--sim-queue 1`) then
//! checks the shed path end to end: at least one `429` must surface
//! through the gateway and every one must carry `Retry-After`.
//!
//! Every benched response is checked against in-process evaluation: the
//! solo phases as in v1, and each cluster response's `"final"` pair must
//! equal the exact solo trajectory of its (model, init) — which also
//! proves the gateway never crossed two models' answers. `--validate`
//! re-opens an emitted file and enforces every gate above on whichever
//! sections are present (at least one must be).
//!
//! **Tracing probe** (always first): the same sequential full-series
//! phase against one server before and after `gmr_obsv::init` installs
//! the process-global journal — the journal is sticky, so the untraced
//! phase must be the first thing the process does. Gates: overhead stays
//! `<= 2%` and the served trajectories are byte-identical with tracing
//! on and off. The solo and cluster sections also report latency
//! quantiles (p50/p90/p99/max, estimated from the log-scaled
//! `serve.latency_us` buckets) and, for the cluster, the gateway's SLO
//! counters — both must be populated, pinning the `/metrics` surface
//! end to end.

use gmr_bench::cli;
use gmr_bio::{manual, name_table};
use gmr_expr::{parse, CompiledSystem, Expr};
use gmr_hydro::{generate, SyntheticConfig, NUM_VARS};
use gmr_json::{push_f64, Value};
use gmr_obsv::metrics::{parse_sample, quantile_from_buckets, Sample};
use gmr_serve::batch::{simulate_single, HostedTable, Tables};
use gmr_serve::server::{read_response, write_request, Client};
use gmr_serve::{
    Cluster, ClusterConfig, Gateway, GatewayConfig, GatewayHandle, ModelArtifact, ModelRegistry,
    Provenance, Ring, Server, ServerConfig, ServerHandle,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SCHEMA: &str = "gmr-bench-serve/v2";
/// Recalibrated from v1's 3.0: the register-VM fast paths sped the
/// sequential baseline more than the coalesced sweep (a lone trajectory
/// gains the most from cheaper scalar stepping), so the same batcher now
/// shows a smaller — but still required — work-sharing ratio.
const MIN_SPEEDUP_BATCHED: f64 = 2.0;
/// Aggregate-throughput floor for the top cluster tier over one backend.
const MIN_CLUSTER_SPEEDUP_FULL: f64 = 2.5; // >= 4 backends
const MIN_CLUSTER_SPEEDUP_SMALL: f64 = 1.2; // 2-3 backends (CI shape)
/// Journal + tracing overhead ceiling: instrumentation only reads clocks
/// and pushes ring-buffer events, so a traced request must cost within
/// 2% of an untraced one.
const MAX_TRACING_OVERHEAD_PCT: f64 = 2.0;
const CLIENTS: usize = 16;
const CLUSTER_CLIENTS: usize = 8;
const CLUSTER_MODELS: usize = 8;
const CLUSTER_DAYS: usize = 3000;
/// Forcing-only light-response terms per model (see [`env_ensemble`]).
const ENV_TERMS: usize = 160;

// ------------------------------------------------------------- latency --

/// Latency quantiles estimated from a `/metrics` histogram's log-scaled
/// buckets: a backend's own `serve.latency_us`, or the gateway's `fleet`
/// merge of every backend's. Report-only values are machine-dependent;
/// the gate is that they are *populated* (`count >= 1`), which pins the
/// whole metrics surface: recording, snapshot JSON, and (for the fleet
/// view) the gateway's cross-backend merge.
struct Latency {
    count: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

impl Latency {
    /// From a histogram snapshot: `{"count", "sum", "buckets": [[i, c]…]}`.
    fn from_histogram(h: &Value) -> Option<Latency> {
        let Sample::Histogram { count, buckets, .. } = parse_sample(h)? else {
            return None;
        };
        Some(Latency {
            count,
            p50_us: quantile_from_buckets(&buckets, 0.5),
            p90_us: quantile_from_buckets(&buckets, 0.9),
            p99_us: quantile_from_buckets(&buckets, 0.99),
            max_us: quantile_from_buckets(&buckets, 1.0),
        })
    }

    fn render(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            self.count, self.p50_us, self.p90_us, self.p99_us, self.max_us
        )
    }
}

fn fetch_metrics(addr: SocketAddr) -> Option<Value> {
    let mut client = Client::new(addr);
    let resp = client.request("GET", "/metrics", b"").ok()?;
    if resp.status != 200 {
        return None;
    }
    gmr_json::parse(std::str::from_utf8(&resp.body).ok()?).ok()
}

// ------------------------------------------------------- tracing probe --

/// Journal + tracing overhead, measured on one server: the identical
/// sequential full-series phase with the process-global journal absent,
/// then installed. `requests` counts both phases.
struct TraceProbe {
    days: usize,
    requests: usize,
    reps: usize,
    journal_installed: bool,
    untraced_secs: f64,
    traced_secs: f64,
    bit_identical: bool,
}

impl TraceProbe {
    fn overhead_pct(&self) -> f64 {
        if self.untraced_secs <= 0.0 {
            return 0.0;
        }
        (self.traced_secs / self.untraced_secs - 1.0) * 100.0
    }
}

/// One rep: `requests` full-series requests on one keep-alive connection.
/// Returns `(secs, last response body)`.
fn probe_rep(addr: SocketAddr, requests: usize) -> (f64, Vec<u8>) {
    let body = series_body("table5-manual", "t", client_init(1));
    let mut client = Client::new(addr);
    let mut last = Vec::new();
    let t0 = Instant::now();
    for _ in 0..requests {
        let resp = client
            .request("POST", "/simulate", body.as_bytes())
            .expect("probe request");
        assert_eq!(resp.status, 200, "probe request failed");
        last = resp.body;
    }
    (t0.elapsed().as_secs_f64(), last)
}

/// Best-of-`reps` phase timing (the min absorbs scheduler noise) plus the
/// final response bytes for the bit-identity check.
fn probe_phase(addr: SocketAddr, requests: usize, reps: usize) -> (f64, Vec<u8>) {
    let mut best = f64::INFINITY;
    let mut last = Vec::new();
    for _ in 0..reps {
        let (secs, bytes) = probe_rep(addr, requests);
        best = best.min(secs);
        last = bytes;
    }
    (best, last)
}

/// `gmr_obsv::init` is sticky (first install wins, never uninstalled), so
/// this probe must run before anything else journals — and everything
/// benched after it runs with the journal live, which biases no relative
/// gate (both sides of each ratio are equally traced).
fn tracing_probe(quick: bool) -> TraceProbe {
    let (days, requests, reps) = if quick { (1500, 24, 3) } else { (3000, 60, 3) };
    let mut registry = ModelRegistry::new();
    registry
        .insert(ModelArtifact::builtin_manual())
        .expect("builtin admits");
    let mut tables = Tables::new();
    tables.insert("t", HostedTable::Single(forcing_rows(days)));
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = Server::new(config, registry, tables)
        .start()
        .expect("start");
    let addr = handle.addr();
    probe_rep(addr, 5); // warm-up
    assert!(
        gmr_obsv::global().is_none(),
        "tracing probe must run before anything installs the journal"
    );
    let (untraced_secs, untraced_bytes) = probe_phase(addr, requests, reps);
    let journal_installed = gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    let (traced_secs, traced_bytes) = probe_phase(addr, requests, reps);
    handle.shutdown();
    TraceProbe {
        days,
        requests: requests * reps * 2,
        reps,
        journal_installed,
        untraced_secs,
        traced_secs,
        bit_identical: !untraced_bytes.is_empty() && untraced_bytes == traced_bytes,
    }
}

// ---------------------------------------------------------------- solo --

struct BenchResult {
    days: usize,
    seq_requests: usize,
    seq_secs: f64,
    con_requests: usize,
    con_secs: f64,
    mean_batch: f64,
    max_batch: u64,
    bit_identical: bool,
    errors: u64,
    latency: Option<Latency>,
}

impl BenchResult {
    fn seq_rps(&self) -> f64 {
        self.seq_requests as f64 / self.seq_secs
    }
    fn con_rps(&self) -> f64 {
        self.con_requests as f64 / self.con_secs
    }
    fn speedup(&self) -> f64 {
        self.con_rps() / self.seq_rps()
    }
}

fn forcing_rows(days: usize) -> Vec<[f64; NUM_VARS]> {
    let ds = generate(&SyntheticConfig::default());
    let mut rows = ds.target_series().vars.clone();
    // Tile if the requested horizon outruns the dataset (it never does at
    // the shipped scales, but the flag is user-settable).
    while rows.len() < days {
        rows.extend_from_within(..);
    }
    rows.truncate(days);
    rows
}

fn client_init(c: usize) -> (f64, f64) {
    (4.0 + c as f64 * 0.73, 0.8 + c as f64 * 0.11)
}

fn summary_body(model: &str, table: &str, init: (f64, f64)) -> String {
    let mut b = format!("{{\"model\": \"{model}\", \"forcings_ref\": \"{table}\", \"mode\": \"summary\", \"init\": [");
    push_f64(&mut b, init.0);
    b.push_str(", ");
    push_f64(&mut b, init.1);
    b.push_str("]}");
    b
}

fn series_body(model: &str, table: &str, init: (f64, f64)) -> String {
    let mut b = format!("{{\"model\": \"{model}\", \"forcings_ref\": \"{table}\", \"init\": [");
    push_f64(&mut b, init.0);
    b.push_str(", ");
    push_f64(&mut b, init.1);
    b.push_str("]}");
    b
}

/// One keep-alive client issuing `n` summary requests; returns
/// `(batch_sum, max_batch, errors, finals)` where `finals` is the last
/// response's `"final"` pair.
fn run_client(addr: SocketAddr, init: (f64, f64), n: usize) -> (u64, u64, u64, Option<(f64, f64)>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let body = summary_body("table5-manual", "t", init);
    let (mut batch_sum, mut max_batch, mut errors) = (0u64, 0u64, 0u64);
    let mut last_final = None;
    for i in 0..n {
        let close = i + 1 == n;
        write_request(&mut writer, "POST", "/simulate", body.as_bytes(), close).expect("write");
        let (status, bytes) = read_response(&mut reader).expect("read");
        if status != 200 {
            errors += 1;
            continue;
        }
        let v = gmr_json::parse(std::str::from_utf8(&bytes).expect("utf8")).expect("json");
        let b = v.get("batch").and_then(Value::as_u64).unwrap_or(0);
        batch_sum += b;
        max_batch = max_batch.max(b);
        if let Some(f) = v.get("final").and_then(Value::as_arr) {
            if let (Some(p), Some(z)) = (f[0].as_f64(), f[1].as_f64()) {
                last_final = Some((p, z));
            }
        }
    }
    (batch_sum, max_batch, errors, last_final)
}

/// Full-series request checked bit-for-bit against in-process evaluation.
fn check_bit_identity(
    addr: SocketAddr,
    model: &str,
    table: &str,
    rows: &[[f64; NUM_VARS]],
    sys: &CompiledSystem,
) -> bool {
    let init = client_init(3);
    let body = series_body(model, table, init);
    let mut client = Client::new(addr);
    let resp = match client.request("POST", "/simulate", body.as_bytes()) {
        Ok(r) => r,
        Err(_) => return false,
    };
    if resp.status != 200 {
        return false;
    }
    let v = gmr_json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("json");
    let got: Vec<f64> = v
        .get("bphy")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let (want, _) = simulate_single(sys, rows, init, 1.0, 1e9);
    got == want
}

fn bench(days: usize, seq_requests: usize, per_client: usize) -> BenchResult {
    let mut registry = ModelRegistry::new();
    registry
        .insert(ModelArtifact::builtin_manual())
        .expect("builtin admits");
    let sys = registry.touch("table5-manual").unwrap().system.clone();
    let rows = forcing_rows(days);
    let mut tables = Tables::new();
    tables.insert("t", HostedTable::Single(rows.clone()));
    let config = ServerConfig {
        workers: CLIENTS,
        sim_queue: CLIENTS * 4,
        ..ServerConfig::default()
    };
    let handle: ServerHandle = Server::new(config, registry, tables)
        .start()
        .expect("start");
    let addr = handle.addr();

    let mut bit_identical = check_bit_identity(addr, "table5-manual", "t", &rows, &sys);
    let mut errors = 0u64;

    // Warm-up.
    run_client(addr, client_init(0), 5);

    // Phase 1: single-connection sequential.
    let t0 = Instant::now();
    let (_, seq_max_batch, seq_errors, seq_final) = run_client(addr, client_init(0), seq_requests);
    let seq_secs = t0.elapsed().as_secs_f64();
    errors += seq_errors;
    let (want_p, want_z) = {
        let (p, z) = simulate_single(&sys, &rows, client_init(0), 1.0, 1e9);
        (*p.last().unwrap(), *z.last().unwrap())
    };
    if seq_final != Some((want_p, want_z)) {
        bit_identical = false;
    }
    if seq_max_batch > 1 {
        // A lone client must never be held for co-batching.
        errors += 1;
    }

    // Phase 2: concurrent clients, coalesced by the batcher.
    let t0 = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| std::thread::spawn(move || run_client(addr, client_init(c), per_client)))
        .collect();
    let mut batch_sum = 0u64;
    let mut max_batch = 0u64;
    let mut answered = 0u64;
    for (c, t) in threads.into_iter().enumerate() {
        let (bs, mb, errs, last_final) = t.join().expect("client thread");
        batch_sum += bs;
        max_batch = max_batch.max(mb);
        errors += errs;
        answered += per_client as u64 - errs;
        let (p, z) = simulate_single(&sys, &rows, client_init(c), 1.0, 1e9);
        if last_final != Some((*p.last().unwrap(), *z.last().unwrap())) {
            bit_identical = false;
        }
    }
    let con_secs = t0.elapsed().as_secs_f64();
    bit_identical &= check_bit_identity(addr, "table5-manual", "t", &rows, &sys);
    let latency = fetch_metrics(addr)
        .as_ref()
        .and_then(|v| v.get("serve.latency_us"))
        .and_then(Latency::from_histogram);
    handle.shutdown();

    BenchResult {
        days,
        seq_requests,
        seq_secs,
        con_requests: CLIENTS * per_client,
        con_secs,
        mean_batch: batch_sum as f64 / answered.max(1) as f64,
        max_batch,
        bit_identical,
        errors,
        latency,
    }
}

// ------------------------------------------------------------- cluster --

struct TierResult {
    backends: usize,
    requests: usize,
    secs: f64,
}

impl TierResult {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.secs
    }
}

struct ClusterResult {
    models: usize,
    days: usize,
    clients: usize,
    per_client: usize,
    hot_models: usize,
    shards: Vec<usize>,
    bit_identical: bool,
    errors: u64,
    tiers: Vec<TierResult>,
    /// Fleet-merged `serve.latency_us` quantiles from the gateway's
    /// `/metrics`, captured after the top tier's timed phase.
    fleet_latency: Option<Latency>,
    slo_target_ms: u64,
    slo_good: u64,
    slo_total: u64,
    overload_requests: usize,
    overload_shed: u64,
    retry_after_ok: bool,
    overload_errors: u64,
}

impl ClusterResult {
    fn speedup(&self) -> f64 {
        let base = self.tiers.iter().find(|t| t.backends == 1);
        let top = self.tiers.iter().max_by_key(|t| t.backends);
        match (base, top) {
            (Some(b), Some(t)) if b.secs > 0.0 => t.rps() / b.rps(),
            _ => 0.0,
        }
    }
    fn floor(&self) -> f64 {
        scaling_floor(self.tiers.iter().map(|t| t.backends).max().unwrap_or(1))
    }
}

fn scaling_floor(backends: usize) -> f64 {
    if backends >= 4 {
        MIN_CLUSTER_SPEEDUP_FULL
    } else {
        MIN_CLUSTER_SPEEDUP_SMALL
    }
}

fn parse_eq(src: &str) -> Expr {
    let names = name_table();
    parse(src, &names, |kind| gmr_bio::params::spec(kind).mean)
        .unwrap_or_else(|e| panic!("bench model failed to parse: {e}\n{src}"))
}

/// A forcing-only "environment ensemble": `ENV_TERMS` light-response
/// curves with staggered saturation constants, summed. The whole sum
/// reads only forcings, so the compiler hoists it into the state-
/// independent per-day prefix — exactly the work a resident prefix
/// cache amortises across requests and an LRU eviction throws away.
/// Staggering by `seed` keeps the ensembles (and so the trajectories)
/// distinct per model.
fn env_ensemble(seed: usize) -> String {
    let terms: Vec<String> = (0..ENV_TERMS)
        .map(|k| {
            let c = 5.0 + ((seed * ENV_TERMS + k) % 37) as f64;
            format!("(Vlgt / (CBL + {c:.1})) * exp(1 - Vlgt / (CBL + {c:.1}))")
        })
        .collect();
    terms.join(" + ")
}

/// Eight distinct mixed-traffic models: the four shapes the engine
/// produces (Table V, added flux, temperature modulation, coupled
/// zooplankton), each in two variants with a distinct growth multiplier
/// and a per-model [`env_ensemble`] modifier, so every model's
/// trajectory differs — a routing mix-up between any two of them fails
/// the per-response final check — and every model carries a heavy
/// state-independent prefix for the hot tier to keep resident.
fn cluster_models() -> Vec<(String, [Expr; 2])> {
    let dbphy = manual::dbphy_src();
    let dbzoo = manual::dbzoo_src();
    (0..CLUSTER_MODELS)
        .map(|i| {
            let scale = format!("1.000{i}");
            let env = env_ensemble(i);
            let shape = match i % 4 {
                1 => format!(
                    "({dbphy}) + R * (Vcd / (Vcd + 300)) * ({})",
                    manual::F_LIGHT
                ),
                2 => format!("({dbphy}) * ({})", manual::H_TEMP),
                _ => format!("({dbphy})"),
            };
            let eq0 = format!("(({shape})) * {scale} + 0.0002 * ({env}) * BPhy");
            let eq1 = if i % 4 == 3 {
                format!("({dbzoo}) + CUZ * ({}) * BZoo", manual::G_NUTRIENT)
            } else {
                dbzoo.clone()
            };
            (format!("model-{i}"), [parse_eq(&eq0), parse_eq(&eq1)])
        })
        .collect()
}

/// Spawn a supervised cluster of real `gmr-serve` backends plus a
/// gateway, exactly the `gmr-serve cluster` topology.
fn start_cluster(
    serve_bin: &Path,
    dir: PathBuf,
    art_dir: &Path,
    backends: usize,
    hot_models: usize,
    extra: &[&str],
) -> (Cluster, GatewayHandle) {
    let mut config = ClusterConfig::new(backends, serve_bin.to_path_buf(), dir);
    config.backend_args = vec![
        "--artifacts".into(),
        art_dir.display().to_string(),
        "--days".into(),
        CLUSTER_DAYS.to_string(),
        "--hot-models".into(),
        hot_models.to_string(),
        // Capacity rule: backend workers must exceed the gateway's.
        "--workers".into(),
        (GatewayConfig::default().workers + 2).to_string(),
    ];
    config
        .backend_args
        .extend(extra.iter().map(|s| s.to_string()));
    let cluster = Cluster::start(config).expect("cluster must start");
    let gateway = Gateway::new(GatewayConfig::default(), cluster.slots())
        .start()
        .expect("gateway must bind");
    (cluster, gateway)
}

/// One timed mixed-model client: draws each request's model from a
/// fleet-wide round-robin counter (uniform keyspace coverage, and the
/// worst case for an undersized LRU — consecutive touches never repeat
/// a model), checking every summary `"final"` against the model's exact
/// solo trajectory. Returns `(errors, wrong)`.
fn run_mixed_client(
    addr: SocketAddr,
    c: usize,
    n: usize,
    next: &AtomicUsize,
    names: &[String],
    finals: &[Vec<(f64, f64)>],
) -> (u64, u64) {
    let mut client = Client::new(addr);
    let (mut errors, mut wrong) = (0u64, 0u64);
    for _ in 0..n {
        let m = next.fetch_add(1, Ordering::Relaxed) % names.len();
        let body = summary_body(&names[m], "target", client_init(c));
        let resp = match client.request("POST", "/simulate", body.as_bytes()) {
            Ok(r) => r,
            Err(_) => {
                errors += 1;
                continue;
            }
        };
        if resp.status != 200 {
            errors += 1;
            continue;
        }
        let v = gmr_json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("json");
        let got = v.get("final").and_then(Value::as_arr).and_then(|f| {
            match (f[0].as_f64(), f[1].as_f64()) {
                (Some(p), Some(z)) => Some((p, z)),
                _ => None,
            }
        });
        if got != Some(finals[m][c]) {
            wrong += 1;
        }
    }
    (errors, wrong)
}

fn cluster_bench(quick: bool, backends_max: usize, serve_bin: &Path) -> ClusterResult {
    assert!(backends_max >= 2, "--backends must be at least 2");
    let scratch = std::env::temp_dir().join(format!("gmr-bench-cluster-{}", std::process::id()));
    let art_dir = scratch.join("artifacts");
    std::fs::create_dir_all(&art_dir).expect("scratch dir");

    // Build the artifacts, host them in-process for exact references,
    // and write them to disk for the backends to replicate.
    let models = cluster_models();
    let mut registry = ModelRegistry::new();
    for (name, eqs) in &models {
        let artifact = ModelArtifact::from_equations(
            name,
            eqs,
            Provenance {
                source: "bench".into(),
                ..Provenance::default()
            },
        );
        std::fs::write(art_dir.join(format!("{name}.json")), artifact.to_json())
            .expect("write artifact");
        registry.insert(artifact).expect("bench artifact admits");
    }
    let names: Vec<String> = models.iter().map(|(n, _)| n.clone()).collect();
    let systems: Vec<Arc<CompiledSystem>> = names
        .iter()
        .map(|n| registry.touch(n).unwrap().system.clone())
        .collect();
    let rows = forcing_rows(CLUSTER_DAYS);
    let finals: Vec<Vec<(f64, f64)>> = systems
        .iter()
        .map(|sys| {
            (0..CLUSTER_CLIENTS)
                .map(|c| {
                    let (p, z) = simulate_single(sys, &rows, client_init(c), 1.0, 1e9);
                    (*p.last().unwrap(), *z.last().unwrap())
                })
                .collect()
        })
        .collect();

    // Hot cap `models - 1`: one backend cycling every model misses on
    // every touch; any shard of 2+ backends fits fully hot.
    let hot_models = CLUSTER_MODELS - 1;
    let ring = Ring::new(backends_max);
    let mut shards = vec![0usize; backends_max];
    for name in &names {
        shards[ring.preference(&Ring::key(name, "target"))[0] as usize] += 1;
    }

    let per_client = if quick { 12 } else { 40 };
    let mut bit_identical = true;
    let mut errors = 0u64;
    let mut tiers = Vec::new();
    let mut fleet_latency = None;
    let (mut slo_target_ms, mut slo_good, mut slo_total) = (0u64, 0u64, 0u64);
    for backends in [1, backends_max] {
        let (cluster, gateway) = start_cluster(
            serve_bin,
            scratch.join(format!("tier-{backends}")),
            &art_dir,
            backends,
            hot_models,
            &[],
        );
        let addr = gateway.addr();
        // Bit-identity through the gateway, per model: a full-series
        // response must match in-process evaluation exactly.
        for (m, name) in names.iter().enumerate() {
            bit_identical &= check_bit_identity(addr, name, "target", &rows, &systems[m]);
        }
        // Warm-up pass, then the timed mixed-model phase.
        let next = Arc::new(AtomicUsize::new(0));
        run_mixed_client(addr, 0, names.len(), &next, &names, &finals);
        next.store(0, Ordering::Relaxed);
        let t0 = Instant::now();
        let threads: Vec<_> = (0..CLUSTER_CLIENTS)
            .map(|c| {
                let names = names.clone();
                let finals = finals.clone();
                let next = Arc::clone(&next);
                std::thread::spawn(move || {
                    run_mixed_client(addr, c, per_client, &next, &names, &finals)
                })
            })
            .collect();
        for t in threads {
            let (errs, wrong) = t.join().expect("client thread");
            errors += errs;
            if wrong > 0 {
                bit_identical = false;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        // The sharded tier is where the fleet view matters: quantiles over
        // every backend's merged buckets, plus the gateway's SLO counters.
        if backends == backends_max {
            if let Some(m) = fetch_metrics(addr) {
                fleet_latency = m
                    .get("fleet")
                    .and_then(|f| f.get("serve.latency_us"))
                    .and_then(Latency::from_histogram);
                if let Some(s) = m.get("slo") {
                    slo_target_ms = s.get("target_ms").and_then(Value::as_u64).unwrap_or(0);
                    slo_good = s.get("good").and_then(Value::as_u64).unwrap_or(0);
                    slo_total = s.get("total").and_then(Value::as_u64).unwrap_or(0);
                }
            }
        }
        gateway.shutdown();
        cluster.shutdown();
        tiers.push(TierResult {
            backends,
            requests: CLUSTER_CLIENTS * per_client,
            secs,
        });
        eprintln!(
            "  cluster tier {backends}: {:.1} req/s ({} requests, {:.3}s)",
            tiers.last().unwrap().rps(),
            CLUSTER_CLIENTS * per_client,
            secs
        );
    }

    // Overload probe: one backend, a one-slot simulation queue, and a
    // model-cycling burst (every group recompiles, so the queue stays
    // full). The shed path must surface through the gateway as 429 +
    // Retry-After, never a hang or a bare 429.
    let (cluster, gateway) = start_cluster(
        serve_bin,
        scratch.join("overload"),
        &art_dir,
        1,
        hot_models,
        &["--sim-queue", "1"],
    );
    let addr = gateway.addr();
    let overload_per_client = 6;
    let threads: Vec<_> = (0..CLUSTER_CLIENTS)
        .map(|c| {
            let names = names.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let (mut shed, mut missing_ra, mut errs) = (0u64, 0u64, 0u64);
                for j in 0..overload_per_client {
                    let m = (c + j) % names.len();
                    let body = summary_body(&names[m], "target", client_init(c));
                    match client.request("POST", "/simulate", body.as_bytes()) {
                        Ok(resp) if resp.status == 429 => {
                            shed += 1;
                            if resp.retry_after.is_none() {
                                missing_ra += 1;
                            }
                        }
                        Ok(resp) if resp.status == 200 => {}
                        _ => errs += 1,
                    }
                }
                (shed, missing_ra, errs)
            })
        })
        .collect();
    let (mut overload_shed, mut missing_ra, mut overload_errors) = (0u64, 0u64, 0u64);
    for t in threads {
        let (s, m, e) = t.join().expect("overload client");
        overload_shed += s;
        missing_ra += m;
        overload_errors += e;
    }
    gateway.shutdown();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    ClusterResult {
        models: CLUSTER_MODELS,
        days: CLUSTER_DAYS,
        clients: CLUSTER_CLIENTS,
        per_client,
        hot_models,
        shards,
        bit_identical,
        errors,
        tiers,
        fleet_latency,
        slo_target_ms,
        slo_good,
        slo_total,
        overload_requests: CLUSTER_CLIENTS * overload_per_client,
        overload_shed,
        retry_after_ok: overload_shed > 0 && missing_ra == 0,
        overload_errors,
    }
}

// ----------------------------------------------------------- rendering --

fn render_solo(out: &mut String, r: &BenchResult) {
    out.push_str("  \"solo\": {\n");
    out.push_str("    \"model\": \"table5-manual\",\n");
    out.push_str(&format!("    \"days\": {},\n", r.days));
    out.push_str(&format!("    \"clients\": {CLIENTS},\n"));
    out.push_str(&format!("    \"bit_identical\": {},\n", r.bit_identical));
    out.push_str(&format!("    \"errors\": {},\n", r.errors));
    out.push_str(&format!(
        "    \"sequential\": {{\"requests\": {}, \"secs\": {:.4}, \"rps\": {:.1}}},\n",
        r.seq_requests,
        r.seq_secs,
        r.seq_rps()
    ));
    out.push_str(&format!(
        "    \"batched\": {{\"requests\": {}, \"secs\": {:.4}, \"rps\": {:.1}, \
         \"mean_batch\": {:.2}, \"max_batch\": {}}},\n",
        r.con_requests,
        r.con_secs,
        r.con_rps(),
        r.mean_batch,
        r.max_batch
    ));
    if let Some(l) = &r.latency {
        out.push_str(&format!("    \"latency\": {},\n", l.render()));
    }
    out.push_str(&format!("    \"batched_speedup\": {:.3}\n", r.speedup()));
    out.push_str("  }");
}

fn render_tracing(out: &mut String, p: &TraceProbe) {
    out.push_str("  \"tracing\": {\n");
    out.push_str(&format!("    \"days\": {},\n", p.days));
    out.push_str(&format!("    \"requests\": {},\n", p.requests));
    out.push_str(&format!("    \"reps\": {},\n", p.reps));
    out.push_str(&format!(
        "    \"journal_installed\": {},\n",
        p.journal_installed
    ));
    out.push_str(&format!("    \"untraced_secs\": {:.4},\n", p.untraced_secs));
    out.push_str(&format!("    \"traced_secs\": {:.4},\n", p.traced_secs));
    out.push_str(&format!("    \"overhead_pct\": {:.3},\n", p.overhead_pct()));
    out.push_str(&format!(
        "    \"max_overhead_pct\": {MAX_TRACING_OVERHEAD_PCT:.1},\n"
    ));
    out.push_str(&format!("    \"bit_identical\": {}\n", p.bit_identical));
    out.push_str("  }");
}

fn render_cluster(out: &mut String, r: &ClusterResult) {
    out.push_str("  \"cluster\": {\n");
    out.push_str(&format!("    \"models\": {},\n", r.models));
    out.push_str(&format!("    \"days\": {},\n", r.days));
    out.push_str(&format!("    \"clients\": {},\n", r.clients));
    out.push_str(&format!("    \"per_client\": {},\n", r.per_client));
    out.push_str(&format!("    \"hot_models\": {},\n", r.hot_models));
    out.push_str("    \"shards\": [");
    for (i, s) in r.shards.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&s.to_string());
    }
    out.push_str("],\n");
    out.push_str(&format!("    \"bit_identical\": {},\n", r.bit_identical));
    out.push_str(&format!("    \"errors\": {},\n", r.errors));
    out.push_str("    \"tiers\": [");
    for (i, t) in r.tiers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n      {{\"backends\": {}, \"requests\": {}, \"secs\": {:.4}, \"rps\": {:.1}}}",
            t.backends,
            t.requests,
            t.secs,
            t.rps()
        ));
    }
    out.push_str("\n    ],\n");
    out.push_str(&format!("    \"cluster_speedup\": {:.3},\n", r.speedup()));
    out.push_str(&format!("    \"scaling_floor\": {:.1},\n", r.floor()));
    if let Some(l) = &r.fleet_latency {
        out.push_str(&format!("    \"latency\": {},\n", l.render()));
    }
    out.push_str(&format!(
        "    \"slo\": {{\"target_ms\": {}, \"good\": {}, \"total\": {}}},\n",
        r.slo_target_ms, r.slo_good, r.slo_total
    ));
    out.push_str(&format!(
        "    \"overload\": {{\"requests\": {}, \"shed\": {}, \"retry_after_ok\": {}, \"errors\": {}}}\n",
        r.overload_requests, r.overload_shed, r.retry_after_ok, r.overload_errors
    ));
    out.push_str("  }");
}

fn render_json(
    solo: Option<&BenchResult>,
    cluster: Option<&ClusterResult>,
    tracing: Option<&TraceProbe>,
    quick: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"scale\": \"{}\"",
        if quick { "quick" } else { "default" }
    ));
    if let Some(p) = tracing {
        out.push_str(",\n");
        render_tracing(&mut out, p);
    }
    if let Some(r) = solo {
        out.push_str(",\n");
        render_solo(&mut out, r);
    }
    if let Some(r) = cluster {
        out.push_str(",\n");
        render_cluster(&mut out, r);
    }
    out.push_str("\n}\n");
    out
}

// ---------------------------------------------------------- validation --

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn validate_solo(v: &Value, errs: &mut Vec<String>) {
    if v.get("bit_identical").and_then(Value::as_bool) != Some(true) {
        errs.push("solo: bit_identical is not true — served responses diverged".into());
    }
    match num(v, "errors") {
        Some(0.0) => {}
        Some(e) => errs.push(format!("solo: {e} non-200 or mis-batched responses")),
        None => errs.push("solo: errors missing".into()),
    }
    if v.get("batched")
        .and_then(|b| num(b, "mean_batch"))
        .is_none()
    {
        errs.push("solo: batched.mean_batch missing".into());
    }
    match num(v, "batched_speedup") {
        Some(s) if s >= MIN_SPEEDUP_BATCHED => {}
        Some(s) => errs.push(format!(
            "solo: batched_speedup {s:.3} below the {MIN_SPEEDUP_BATCHED}x gate"
        )),
        None => errs.push("solo: batched_speedup missing".into()),
    }
    match v.get("latency").and_then(|l| num(l, "count")) {
        Some(c) if c >= 1.0 => {}
        _ => errs.push("solo: latency quantiles missing — `serve.latency_us` unpopulated".into()),
    }
}

fn validate_tracing(v: &Value, errs: &mut Vec<String>) {
    if v.get("bit_identical").and_then(Value::as_bool) != Some(true) {
        errs.push(
            "tracing: bit_identical is not true — tracing changed a served trajectory".into(),
        );
    }
    match num(v, "overhead_pct") {
        Some(o) if o <= MAX_TRACING_OVERHEAD_PCT => {}
        Some(o) => errs.push(format!(
            "tracing: overhead {o:.3}% above the {MAX_TRACING_OVERHEAD_PCT}% gate"
        )),
        None => errs.push("tracing: overhead_pct missing".into()),
    }
}

fn validate_cluster(v: &Value, errs: &mut Vec<String>) {
    if v.get("bit_identical").and_then(Value::as_bool) != Some(true) {
        errs.push("cluster: bit_identical is not true — a gateway response diverged".into());
    }
    match num(v, "errors") {
        Some(0.0) => {}
        Some(e) => errs.push(format!("cluster: {e} failed responses in the timed phases")),
        None => errs.push("cluster: errors missing".into()),
    }
    let tiers: Vec<(f64, f64)> = v
        .get("tiers")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|t| Some((num(t, "backends")?, num(t, "rps")?)))
                .collect()
        })
        .unwrap_or_default();
    let base = tiers.iter().find(|(b, _)| *b == 1.0).map(|(_, r)| *r);
    let top = tiers
        .iter()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .filter(|(b, _)| *b >= 2.0)
        .copied();
    match (base, top) {
        (Some(rps1), Some((backends, rps_top))) if rps1 > 0.0 => {
            let speedup = rps_top / rps1;
            let floor = scaling_floor(backends as usize);
            if speedup < floor {
                errs.push(format!(
                    "cluster: speedup {speedup:.3} at {backends} backends below the {floor}x floor"
                ));
            }
        }
        _ => errs.push("cluster: tiers must cover 1 backend and a sharded tier".into()),
    }
    match v.get("latency").and_then(|l| num(l, "count")) {
        Some(c) if c >= 1.0 => {}
        _ => errs.push(
            "cluster: latency quantiles missing — the gateway's fleet merge is unpopulated".into(),
        ),
    }
    match v.get("slo").and_then(|s| num(s, "total")) {
        Some(t) if t >= 1.0 => {}
        _ => {
            errs.push("cluster: slo.total is zero — the gateway's SLO counters never moved".into())
        }
    }
    match v.get("overload") {
        Some(o) => {
            match num(o, "shed") {
                Some(s) if s >= 1.0 => {}
                _ => errs
                    .push("cluster: overload probe shed no requests — 429 path unexercised".into()),
            }
            if o.get("retry_after_ok").and_then(Value::as_bool) != Some(true) {
                errs.push("cluster: a shed response was missing Retry-After".into());
            }
            match num(o, "errors") {
                Some(0.0) => {}
                _ => errs.push("cluster: overload probe saw non-200/429 responses".into()),
            }
        }
        None => errs.push("cluster: overload section missing".into()),
    }
}

/// Enforce the acceptance gates on an emitted file. Returns the failures.
/// The document must strict-reparse under `gmr_json` before any gate is
/// read — a truncated or hand-mangled baseline fails loudly.
fn validate(src: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let v = match gmr_json::parse(src) {
        Ok(v) => v,
        Err(e) => return vec![format!("not strict JSON: {e}")],
    };
    if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("missing schema tag {SCHEMA:?}"));
    }
    let solo = v.get("solo");
    let cluster = v.get("cluster");
    if solo.is_none() && cluster.is_none() {
        errs.push("neither a solo nor a cluster section is present".into());
    }
    if let Some(s) = solo {
        validate_solo(s, &mut errs);
    }
    if let Some(c) = cluster {
        validate_cluster(c, &mut errs);
    }
    if let Some(t) = v.get("tracing") {
        validate_tracing(t, &mut errs);
    }
    errs
}

// ---------------------------------------------------------------- main --

fn default_serve_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("gmr-serve")))
        .unwrap_or_else(|| PathBuf::from("gmr-serve"))
}

/// The arguments part of the usage line.
const USAGE: &str =
    "[--quick] [--solo] [--cluster] [--backends N] [--serve-bin PATH] [--out PATH] [--validate PATH]";

fn main() {
    let args = cli::BenchArgs::from_env(
        USAGE,
        &["--validate", "--backends", "--serve-bin", "--out"],
        &["--quick", "--solo", "--cluster"],
    );
    if let Some(path) = args.value("--validate") {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let errs = validate(&src);
        if errs.is_empty() {
            println!("{path}: OK ({SCHEMA})");
            return;
        }
        for e in &errs {
            eprintln!("{path}: FAIL: {e}");
        }
        std::process::exit(1);
    }

    let quick = args.has("--quick");
    let want_solo = args.has("--solo");
    let want_cluster = args.has("--cluster");
    // No section flag selects both (the committed-baseline shape).
    let (want_solo, want_cluster) = if want_solo || want_cluster {
        (want_solo, want_cluster)
    } else {
        (true, true)
    };
    let backends = args
        .count("--backends", 4, 2)
        .unwrap_or_else(|e| cli::usage_exit(USAGE, &e));
    let serve_bin = args
        .value("--serve-bin")
        .map(PathBuf::from)
        .unwrap_or_else(default_serve_bin);
    let out_path = args.value("--out").unwrap_or("BENCH_serve.json");

    // The probe must be the process's first journal user (`init` is
    // sticky), so it runs before either bench section.
    eprintln!("bench_serve tracing probe: journal overhead + on/off bit-identity");
    let tracing = tracing_probe(quick);
    eprintln!(
        "  untraced {:.4}s | traced {:.4}s | overhead {:.2}% | bit identical: {}",
        tracing.untraced_secs,
        tracing.traced_secs,
        tracing.overhead_pct(),
        tracing.bit_identical
    );

    let solo = want_solo.then(|| {
        // Both scales keep the full 13-year horizon: the gate measures
        // work-sharing, which only shows when simulation dominates the
        // per-request cost. `--quick` trims the request counts.
        let (days, seq_requests, per_client) = if quick {
            (4748, 120, 20)
        } else {
            (4748, 400, 50)
        };
        eprintln!(
            "bench_serve solo: {days} days, {seq_requests} sequential, {CLIENTS}x{per_client} batched"
        );
        let r = bench(days, seq_requests, per_client);
        eprintln!(
            "  sequential: {:.1} req/s | batched: {:.1} req/s (mean batch {:.1}, max {}) | {:.2}x",
            r.seq_rps(),
            r.con_rps(),
            r.mean_batch,
            r.max_batch,
            r.speedup()
        );
        r
    });

    let cluster = want_cluster.then(|| {
        if !serve_bin.is_file() {
            eprintln!(
                "bench_serve: backend binary {} not found — build `-p gmr-serve --release` first \
                 or pass --serve-bin PATH",
                serve_bin.display()
            );
            std::process::exit(2);
        }
        eprintln!(
            "bench_serve cluster: {CLUSTER_MODELS} models, {CLUSTER_DAYS} days, \
             tiers [1, {backends}], {CLUSTER_CLIENTS} clients"
        );
        let r = cluster_bench(quick, backends, &serve_bin);
        eprintln!(
            "  cluster speedup {:.2}x at {} backends (floor {:.1}) | shed {} (retry-after ok: {})",
            r.speedup(),
            backends,
            r.floor(),
            r.overload_shed,
            r.retry_after_ok
        );
        r
    });

    let json = render_json(solo.as_ref(), cluster.as_ref(), Some(&tracing), quick);
    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    eprintln!("wrote {out_path}");

    let errs = validate(&json);
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("FAIL: {e}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_result() -> Latency {
        Latency {
            count: 200,
            p50_us: 1800,
            p90_us: 2600,
            p99_us: 3400,
            max_us: 9000,
        }
    }

    fn solo_result() -> BenchResult {
        BenchResult {
            days: 365,
            seq_requests: 40,
            seq_secs: 0.8,
            con_requests: 160,
            con_secs: 0.8,
            mean_batch: 5.2,
            max_batch: 8,
            bit_identical: true,
            errors: 0,
            latency: Some(latency_result()),
        }
    }

    fn cluster_result() -> ClusterResult {
        ClusterResult {
            models: 8,
            days: 365,
            clients: 8,
            per_client: 12,
            hot_models: 7,
            shards: vec![2, 2, 2, 2],
            bit_identical: true,
            errors: 0,
            tiers: vec![
                TierResult {
                    backends: 1,
                    requests: 96,
                    secs: 1.0,
                },
                TierResult {
                    backends: 4,
                    requests: 96,
                    secs: 0.3,
                },
            ],
            fleet_latency: Some(latency_result()),
            slo_target_ms: 250,
            slo_good: 95,
            slo_total: 96,
            overload_requests: 48,
            overload_shed: 17,
            retry_after_ok: true,
            overload_errors: 0,
        }
    }

    fn tracing_result() -> TraceProbe {
        TraceProbe {
            days: 365,
            requests: 144,
            reps: 3,
            journal_installed: true,
            untraced_secs: 1.0,
            traced_secs: 1.005,
            bit_identical: true,
        }
    }

    #[test]
    fn rendered_json_strict_reparses_and_validates() {
        let json = render_json(
            Some(&solo_result()),
            Some(&cluster_result()),
            Some(&tracing_result()),
            true,
        );
        gmr_json::parse(&json).expect("strict parse");
        assert_eq!(validate(&json), Vec::<String>::new());
        assert!(validate("[1, 2")
            .iter()
            .any(|e| e.contains("not strict JSON")));
        assert!(validate("{\"schema\": \"gmr-bench-serve/v2\"}")
            .iter()
            .any(|e| e.contains("neither")));
    }

    #[test]
    fn tracing_gates_catch_overhead_and_divergence() {
        // 5% overhead — over the 2% ceiling.
        let mut p = tracing_result();
        p.traced_secs = 1.05;
        let json = render_json(None, Some(&cluster_result()), Some(&p), true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("above the 2% gate")));
        // A trajectory that changed when tracing was switched on.
        let mut p = tracing_result();
        p.bit_identical = false;
        let json = render_json(None, Some(&cluster_result()), Some(&p), true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("changed a served trajectory")));
        // Negative measured overhead (noise) is not a failure.
        let mut p = tracing_result();
        p.traced_secs = 0.99;
        let json = render_json(None, Some(&cluster_result()), Some(&p), true);
        assert_eq!(validate(&json), Vec::<String>::new());
    }

    #[test]
    fn metrics_surface_gates_catch_unpopulated_sections() {
        // Solo without latency quantiles.
        let mut r = solo_result();
        r.latency = None;
        let json = render_json(Some(&r), None, None, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("solo: latency quantiles missing")));
        // Cluster without a fleet merge.
        let mut r = cluster_result();
        r.fleet_latency = None;
        let json = render_json(None, Some(&r), None, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("cluster: latency quantiles missing")));
        // Cluster whose SLO counters never moved.
        let mut r = cluster_result();
        r.slo_total = 0;
        let json = render_json(None, Some(&r), None, true);
        assert!(validate(&json).iter().any(|e| e.contains("slo.total")));
    }

    #[test]
    fn cluster_gates_catch_regressions() {
        // Scaling below the floor.
        let mut r = cluster_result();
        r.tiers[1].secs = 0.9; // 1.11x — under even the small floor
        let json = render_json(None, Some(&r), None, true);
        assert!(validate(&json).iter().any(|e| e.contains("below the")));
        // No shed during the overload probe.
        let mut r = cluster_result();
        r.overload_shed = 0;
        r.retry_after_ok = false;
        let json = render_json(None, Some(&r), None, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("shed no requests")));
        // A 429 without Retry-After.
        let mut r = cluster_result();
        r.retry_after_ok = false;
        let json = render_json(None, Some(&r), None, true);
        assert!(validate(&json).iter().any(|e| e.contains("Retry-After")));
        // The 2-backend CI shape uses the smaller floor.
        let mut r = cluster_result();
        r.tiers[1].backends = 2;
        r.tiers[1].secs = 0.7; // 1.43x — over 1.2, under 2.5
        let json = render_json(None, Some(&r), None, true);
        assert_eq!(validate(&json), Vec::<String>::new());
    }

    #[test]
    fn solo_gate_catches_slow_batching() {
        let mut r = solo_result();
        r.con_secs = 3.0; // exactly 1x
        let json = render_json(Some(&r), None, None, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("below the 2x gate")));
    }

    #[test]
    fn cluster_models_are_distinct_and_parse() {
        let models = cluster_models();
        assert_eq!(models.len(), CLUSTER_MODELS);
        let names: std::collections::BTreeSet<_> = models.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), CLUSTER_MODELS, "names must be unique");
    }
}
