//! Scenario-engine benchmark: one `/sweep` request fanning into hundreds
//! of jittered forcing variants versus the same variants issued as solo
//! `/simulate` requests, emitted as machine-readable JSON
//! (`gmr-bench-scenario/v1`).
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p gmr-bench --bin bench_scenario -- [--quick] [--out PATH]
//! cargo run --release -p gmr-bench --bin bench_scenario -- --cluster --backends 2 --quick
//! cargo run --release -p gmr-bench --bin bench_scenario -- --validate PATH
//! ```
//!
//! Any other argument, a flag missing its value, or a `--backends` that is
//! not an integer >= 2 exits 2 with a usage line.
//!
//! **Sweep section** (`--sweep`, or default): one in-process `gmr-serve`
//! server admits a generated `gmr-scenario/v1` spec (braided topology,
//! climate transforms, one dam control), then two phases run the same
//! 256-variant what-if study end to end — each must produce all 256
//! [`SweepSummary`] records:
//!
//! * `solo` — one keep-alive connection issues 256 full-series
//!   `/simulate` requests, one per `scn:<name>/<variant>` ref, and
//!   reduces each returned trajectory client-side (a summary needs the
//!   whole daily path — peak day and exceedance counting cannot be had
//!   from a final-state response);
//! * `sweep` — a single `POST /sweep` covers all 256 variants through
//!   the batched ensemble lanes, with each trajectory reduced online
//!   server-side so no series is ever rendered or shipped.
//!
//! The gate is `sweep_speedup >= 4`: aggregate variant throughput of the
//! sweep over the solo baseline. Alongside the throughput gate, every
//! variant's sweep summary must be **bit-identical** to the summary the
//! solo phase reduced from that variant's trajectory (floats having
//! round-tripped through JSON text both ways).
//!
//! **Cluster section** (`--cluster`, or default): real backend processes
//! behind the consistent-hash gateway. The spec is admitted once through
//! the gateway — which must broadcast it to *every* backend, because a
//! sweep and its variants' solo refs hash to different ring keys — and
//! the same per-variant bit-identity contract is enforced end to end
//! through gateway routing, including re-admission idempotency and the
//! fleet-wide `409` on a mutated spec.
//!
//! `--validate` re-opens an emitted file and enforces every gate above
//! on whichever sections are present (at least one must be).

use gmr_bench::cli;
use gmr_json::Value;
use gmr_scenario::{reduce_series, ReduceSpec, SweepSummary};
use gmr_serve::batch::Tables;
use gmr_serve::server::Client;
use gmr_serve::{
    Cluster, ClusterConfig, Gateway, GatewayConfig, GatewayHandle, ModelArtifact, ModelRegistry,
    Server, ServerConfig,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SCHEMA: &str = "gmr-bench-scenario/v1";
/// Aggregate-throughput floor: the sweep must beat 256 solo requests by
/// at least this factor. The win comes from collapsing 256 HTTP
/// round-trips and response renderings into one request whose variants
/// step through shared ensemble lanes with online reduction.
const MIN_SWEEP_SPEEDUP: f64 = 4.0;
/// The issue-level sweep width; `--quick` keeps it (the gate names it)
/// and trims only repetitions and the cluster section.
const SWEEP_VARIANTS: u32 = 256;
const MODEL: &str = "table5-manual";
const THRESHOLD: f64 = 22.5;

// ---------------------------------------------------------------- spec --

/// A deterministic bench scenario: braided topology with climate
/// transforms, plus one dam sited on the last physical non-outlet
/// station — the same construction `gmr-serve scenario-spec` performs,
/// so the bench exercises exactly the spec shape the CLI emits.
fn bench_spec(name: &str, stations: usize) -> String {
    let skeleton = format!(
        r#"{{"schema": "{}", "name": "{name}", "seed": 42,
  "topology": {{"kind": "braided", "stations": {stations}}},
  "years": 1,
  "climate": [{{"kind": "monsoon_shift", "days": 10}},
              {{"kind": "heatwave", "start_day": 185, "length": 15, "amp": 3}},
              {{"kind": "drought", "scale": 0.85}}],
  "spread": 0.25}}"#,
        gmr_scenario::SCHEMA
    );
    let mut spec = gmr_scenario::parse_spec(&skeleton).expect("bench skeleton parses");
    let (net, _envs) = gmr_scenario::topology::build_topology(&spec);
    let outlet = net.outlet();
    let dam_station = net
        .stations()
        .filter(|(sid, st)| *sid != outlet && st.kind != gmr_hydro::StationKind::Virtual)
        .map(|(_, st)| st.name.clone())
        .last()
        .expect("a physical station exists");
    spec.transforms
        .push(gmr_scenario::Transform::Dam(gmr_scenario::DamSpec {
            station: dam_station,
            capacity: 200_000.0,
            release: vec![0.6; 12],
            overflow: 0.75,
        }));
    gmr_scenario::render_spec(&spec)
}

fn sweep_body(scenario: &str, variants: u32) -> String {
    format!(
        r#"{{"scenario": "{scenario}", "model": "{MODEL}", "variants": {variants}, "reduce": {{"threshold": {THRESHOLD}}}}}"#
    )
}

/// Full-series solo request for one variant's `scn:` ref. Init is
/// omitted on purpose: `/simulate` and `/sweep` share the same default,
/// which keeps the two phases simulating identical trajectories.
fn solo_series_body(scenario: &str, variant: u32) -> String {
    format!(r#"{{"model": "{MODEL}", "forcings_ref": "scn:{scenario}/{variant}"}}"#)
}

/// One solo step of the what-if study: fetch the variant's full
/// trajectory and reduce it client-side to the same summary a sweep
/// produces. `None` on any transport, status, or shape failure.
fn solo_variant_summary(client: &mut Client, scenario: &str, variant: u32) -> Option<SweepSummary> {
    let body = solo_series_body(scenario, variant);
    let resp = client.request("POST", "/simulate", body.as_bytes()).ok()?;
    if resp.status != 200 {
        return None;
    }
    let v = gmr_json::parse(std::str::from_utf8(&resp.body).ok()?).ok()?;
    let series = |key: &str| -> Option<Vec<f64>> {
        v.get(key)
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
    };
    let (bphy, bzoo) = (series("bphy")?, series("bzoo")?);
    let reduce = ReduceSpec {
        threshold: THRESHOLD,
    };
    Some(reduce_series(variant, &reduce, &bphy, &bzoo))
}

// ------------------------------------------------------------- helpers --

/// Admit a spec and return the compiled scenario's day count.
fn admit(addr: SocketAddr, spec: &str) -> Result<u64, String> {
    let mut client = Client::new(addr);
    let resp = client
        .request("POST", "/scenarios", spec.as_bytes())
        .map_err(|e| format!("admission transport: {e}"))?;
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    if resp.status != 200 {
        return Err(format!("admission failed: {} {body}", resp.status));
    }
    let v = gmr_json::parse(&body).map_err(|e| format!("admission body: {e}"))?;
    v.get("days")
        .and_then(Value::as_u64)
        .ok_or_else(|| "admission body carries no days".into())
}

/// Parse a `/sweep` response body into its per-variant summaries.
fn parse_summaries(body: &[u8]) -> Option<Vec<SweepSummary>> {
    let v = gmr_json::parse(std::str::from_utf8(body).ok()?).ok()?;
    v.get("summaries")
        .and_then(Value::as_arr)?
        .iter()
        .map(SweepSummary::from_value)
        .collect()
}

/// Re-derive one variant's summary from a full-series solo `/simulate`
/// of its `scn:` ref, and demand bitwise agreement with the sweep's.
/// Returns false on any transport/shape mismatch or float divergence.
fn variant_agrees(addr: SocketAddr, scenario: &str, variant: u32, got: &SweepSummary) -> bool {
    let mut client = Client::new(addr);
    solo_variant_summary(&mut client, scenario, variant).as_ref() == Some(got)
}

// ---------------------------------------------------------------- sweep --

struct SweepBench {
    variants: u32,
    days: u64,
    solo_secs: f64,
    sweep_secs: f64,
    bit_identical: bool,
    errors: u64,
}

impl SweepBench {
    fn solo_rps(&self) -> f64 {
        self.variants as f64 / self.solo_secs
    }
    fn sweep_rps(&self) -> f64 {
        self.variants as f64 / self.sweep_secs
    }
    fn speedup(&self) -> f64 {
        self.sweep_rps() / self.solo_rps()
    }
}

fn sweep_bench(quick: bool) -> SweepBench {
    let reps = if quick { 3 } else { 5 };
    let mut registry = ModelRegistry::new();
    registry
        .insert(ModelArtifact::builtin_manual())
        .expect("builtin admits");
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let handle = Server::new(config, registry, Tables::new())
        .start()
        .expect("start");
    let addr = handle.addr();

    let scenario = "bench-what-if";
    let days = admit(addr, &bench_spec(scenario, 16)).expect("bench scenario admits");
    let mut errors = 0u64;

    // Warm-up both paths (materialisation, prefix cache, connections).
    let mut client = Client::new(addr);
    for v in 0..4 {
        if solo_variant_summary(&mut client, scenario, v).is_none() {
            errors += 1;
        }
    }
    let warm = sweep_body(scenario, 8);
    if !matches!(client.request("POST", "/sweep", warm.as_bytes()), Ok(r) if r.status == 200) {
        errors += 1;
    }

    // Phase 1: the what-if study as 256 solo requests + client-side
    // reduction, best-of-`reps` on one keep-alive connection. The last
    // rep's summaries are the bit-identity reference.
    let mut solo_secs = f64::INFINITY;
    let mut solo_summaries: Vec<SweepSummary> = Vec::new();
    for _ in 0..reps.min(3) {
        let mut summaries = Vec::with_capacity(SWEEP_VARIANTS as usize);
        let t0 = Instant::now();
        for v in 0..SWEEP_VARIANTS {
            match solo_variant_summary(&mut client, scenario, v) {
                Some(s) => summaries.push(s),
                None => errors += 1,
            }
        }
        solo_secs = solo_secs.min(t0.elapsed().as_secs_f64());
        solo_summaries = summaries;
    }

    // Phase 2: the same study as one `/sweep`, best-of-`reps`. The
    // response is deterministic, so keeping the last body is safe.
    let body = sweep_body(scenario, SWEEP_VARIANTS);
    let mut sweep_secs = f64::INFINITY;
    let mut sweep_bytes = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        match client.request("POST", "/sweep", body.as_bytes()) {
            Ok(r) if r.status == 200 => sweep_bytes = r.body,
            _ => errors += 1,
        }
        sweep_secs = sweep_secs.min(t0.elapsed().as_secs_f64());
    }

    // Bit-identity: the sweep's 256 summaries must equal the solo
    // phase's client-side reductions element-wise, and the jitter must
    // actually spread the variants (all-equal means it is broken).
    let bit_identical = match parse_summaries(&sweep_bytes) {
        Some(s) if s.len() == SWEEP_VARIANTS as usize => {
            s == solo_summaries && s.windows(2).any(|w| w[0] != w[1])
        }
        _ => false,
    };
    handle.shutdown();

    SweepBench {
        variants: SWEEP_VARIANTS,
        days,
        solo_secs,
        sweep_secs,
        bit_identical,
        errors,
    }
}

// -------------------------------------------------------------- cluster --

struct ClusterBench {
    backends: usize,
    variants: u32,
    days: u64,
    broadcast_ok: bool,
    bit_identical: bool,
    errors: u64,
}

fn start_cluster(serve_bin: &Path, dir: PathBuf, backends: usize) -> (Cluster, GatewayHandle) {
    let mut config = ClusterConfig::new(backends, serve_bin.to_path_buf(), dir);
    config.backend_args = vec![
        "--days".into(),
        "365".into(),
        // Capacity rule: backend workers must exceed the gateway's.
        "--workers".into(),
        (GatewayConfig::default().workers + 2).to_string(),
    ];
    let cluster = Cluster::start(config).expect("cluster must start");
    let gateway = Gateway::new(GatewayConfig::default(), cluster.slots())
        .start()
        .expect("gateway must bind");
    (cluster, gateway)
}

fn cluster_bench(quick: bool, backends: usize, serve_bin: &Path) -> ClusterBench {
    assert!(backends >= 2, "--backends must be at least 2");
    let variants: u32 = if quick { 16 } else { 64 };
    let scratch = std::env::temp_dir().join(format!("gmr-bench-scenario-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let (cluster, gateway) = start_cluster(serve_bin, scratch.clone(), backends);
    let addr = gateway.addr();
    let mut errors = 0u64;

    let scenario = "bench-cluster";
    let spec = bench_spec(scenario, 12);
    let days = admit(addr, &spec).unwrap_or_else(|e| {
        errors += 1;
        eprintln!("  cluster admission failed: {e}");
        0
    });

    // The gateway must have broadcast the admission to every backend —
    // sweep and solo-variant keys hash differently, so any backend may
    // be asked to serve this scenario.
    let mut broadcast_ok = days > 0;
    for slot in cluster.slots().iter() {
        let Some(backend) = slot.addr() else {
            broadcast_ok = false;
            continue;
        };
        let mut probe = Client::new(backend);
        match probe.request("GET", "/scenarios", b"") {
            Ok(r) if r.status == 200 => {
                if !String::from_utf8_lossy(&r.body).contains(scenario) {
                    broadcast_ok = false;
                }
            }
            _ => broadcast_ok = false,
        }
    }
    // Re-admission is an idempotent broadcast; a mutated spec under the
    // same name is refused fleet-wide.
    let mut client = Client::new(addr);
    if !matches!(client.request("POST", "/scenarios", spec.as_bytes()), Ok(r) if r.status == 200) {
        errors += 1;
    }
    let mutated = spec.replace("\"seed\": 42", "\"seed\": 43");
    if !matches!(client.request("POST", "/scenarios", mutated.as_bytes()), Ok(r) if r.status == 409)
    {
        errors += 1;
    }

    // One sweep through the gateway, then every variant re-derived from
    // a gateway-routed solo trajectory (possibly on another backend).
    let body = sweep_body(scenario, variants);
    let sweep_bytes = match client.request("POST", "/sweep", body.as_bytes()) {
        Ok(r) if r.status == 200 => r.body,
        _ => {
            errors += 1;
            Vec::new()
        }
    };
    let bit_identical = match parse_summaries(&sweep_bytes) {
        Some(s) if s.len() == variants as usize => s
            .iter()
            .enumerate()
            .all(|(v, got)| variant_agrees(addr, scenario, v as u32, got)),
        _ => false,
    };

    gateway.shutdown();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    ClusterBench {
        backends,
        variants,
        days,
        broadcast_ok,
        bit_identical,
        errors,
    }
}

// ----------------------------------------------------------- rendering --

fn render_sweep(out: &mut String, r: &SweepBench) {
    out.push_str("  \"sweep\": {\n");
    out.push_str(&format!("    \"model\": \"{MODEL}\",\n"));
    out.push_str(&format!("    \"variants\": {},\n", r.variants));
    out.push_str(&format!("    \"days\": {},\n", r.days));
    out.push_str(&format!("    \"threshold\": {THRESHOLD},\n"));
    out.push_str(&format!(
        "    \"solo\": {{\"requests\": {}, \"secs\": {:.4}, \"rps\": {:.1}}},\n",
        r.variants,
        r.solo_secs,
        r.solo_rps()
    ));
    out.push_str(&format!(
        "    \"swept\": {{\"secs\": {:.4}, \"variants_per_sec\": {:.1}}},\n",
        r.sweep_secs,
        r.sweep_rps()
    ));
    out.push_str(&format!("    \"bit_identical\": {},\n", r.bit_identical));
    out.push_str(&format!("    \"errors\": {},\n", r.errors));
    out.push_str(&format!("    \"speedup_floor\": {MIN_SWEEP_SPEEDUP:.1},\n"));
    out.push_str(&format!("    \"sweep_speedup\": {:.3}\n", r.speedup()));
    out.push_str("  }");
}

fn render_cluster(out: &mut String, r: &ClusterBench) {
    out.push_str("  \"cluster\": {\n");
    out.push_str(&format!("    \"backends\": {},\n", r.backends));
    out.push_str(&format!("    \"variants\": {},\n", r.variants));
    out.push_str(&format!("    \"days\": {},\n", r.days));
    out.push_str(&format!("    \"broadcast_ok\": {},\n", r.broadcast_ok));
    out.push_str(&format!("    \"bit_identical\": {},\n", r.bit_identical));
    out.push_str(&format!("    \"errors\": {}\n", r.errors));
    out.push_str("  }");
}

fn render_json(sweep: Option<&SweepBench>, cluster: Option<&ClusterBench>, quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"scale\": \"{}\"",
        if quick { "quick" } else { "default" }
    ));
    if let Some(r) = sweep {
        out.push_str(",\n");
        render_sweep(&mut out, r);
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

fn validate_sweep(v: &Value, errs: &mut Vec<String>) {
    if v.get("bit_identical").and_then(Value::as_bool) != Some(true) {
        errs.push(
            "sweep: bit_identical is not true — a sweep summary diverged from its solo trajectory"
                .into(),
        );
    }
    match num(v, "errors") {
        Some(0.0) => {}
        Some(e) => errs.push(format!("sweep: {e} failed requests")),
        None => errs.push("sweep: errors missing".into()),
    }
    match num(v, "variants") {
        Some(n) if n >= SWEEP_VARIANTS as f64 => {}
        Some(n) => errs.push(format!(
            "sweep: only {n} variants — the gate names {SWEEP_VARIANTS}"
        )),
        None => errs.push("sweep: variants missing".into()),
    }
    match num(v, "sweep_speedup") {
        Some(s) if s >= MIN_SWEEP_SPEEDUP => {}
        Some(s) => errs.push(format!(
            "sweep: sweep_speedup {s:.3} below the {MIN_SWEEP_SPEEDUP}x gate"
        )),
        None => errs.push("sweep: sweep_speedup missing".into()),
    }
}

fn validate_cluster(v: &Value, errs: &mut Vec<String>) {
    if v.get("broadcast_ok").and_then(Value::as_bool) != Some(true) {
        errs.push("cluster: broadcast_ok is not true — a backend missed the admission".into());
    }
    if v.get("bit_identical").and_then(Value::as_bool) != Some(true) {
        errs.push("cluster: bit_identical is not true — a gateway-routed variant diverged".into());
    }
    match num(v, "errors") {
        Some(0.0) => {}
        Some(e) => errs.push(format!("cluster: {e} failed requests")),
        None => errs.push("cluster: errors missing".into()),
    }
    match num(v, "variants") {
        Some(n) if n >= 1.0 => {}
        _ => errs.push("cluster: variants missing or zero".into()),
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
    let sweep = v.get("sweep");
    let cluster = v.get("cluster");
    if sweep.is_none() && cluster.is_none() {
        errs.push("neither a sweep nor a cluster section is present".into());
    }
    if let Some(s) = sweep {
        validate_sweep(s, &mut errs);
    }
    if let Some(c) = cluster {
        validate_cluster(c, &mut errs);
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
    "[--quick] [--sweep] [--cluster] [--backends N] [--serve-bin PATH] [--out PATH] [--validate PATH]";

fn main() {
    let args = cli::BenchArgs::from_env(
        USAGE,
        &["--validate", "--backends", "--serve-bin", "--out"],
        &["--quick", "--sweep", "--cluster"],
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
    let want_sweep = args.has("--sweep");
    let want_cluster = args.has("--cluster");
    // No section flag selects both (the committed-baseline shape).
    let (want_sweep, want_cluster) = if want_sweep || want_cluster {
        (want_sweep, want_cluster)
    } else {
        (true, true)
    };
    let backends = args
        .count("--backends", 2, 2)
        .unwrap_or_else(|e| cli::usage_exit(USAGE, &e));
    let serve_bin = args
        .value("--serve-bin")
        .map(PathBuf::from)
        .unwrap_or_else(default_serve_bin);
    let out_path = args.value("--out").unwrap_or("BENCH_scenario.json");

    let sweep = want_sweep.then(|| {
        eprintln!("bench_scenario sweep: {SWEEP_VARIANTS} variants, solo vs one /sweep");
        let r = sweep_bench(quick);
        eprintln!(
            "  solo: {:.1} var/s ({:.3}s) | sweep: {:.1} var/s ({:.3}s) | {:.2}x | bit identical: {}",
            r.solo_rps(),
            r.solo_secs,
            r.sweep_rps(),
            r.sweep_secs,
            r.speedup(),
            r.bit_identical
        );
        r
    });

    let cluster = want_cluster.then(|| {
        if !serve_bin.is_file() {
            eprintln!(
                "bench_scenario: backend binary {} not found — build `-p gmr-serve --release` \
                 first or pass --serve-bin PATH",
                serve_bin.display()
            );
            std::process::exit(2);
        }
        eprintln!("bench_scenario cluster: {backends} backends, broadcast + gateway bit-identity");
        let r = cluster_bench(quick, backends, &serve_bin);
        eprintln!(
            "  {} variants | broadcast ok: {} | bit identical: {} | errors: {}",
            r.variants, r.broadcast_ok, r.bit_identical, r.errors
        );
        r
    });

    let json = render_json(sweep.as_ref(), cluster.as_ref(), quick);
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

    fn sweep_result() -> SweepBench {
        SweepBench {
            variants: SWEEP_VARIANTS,
            days: 366,
            solo_secs: 2.0,
            sweep_secs: 0.25,
            bit_identical: true,
            errors: 0,
        }
    }

    fn cluster_result() -> ClusterBench {
        ClusterBench {
            backends: 2,
            variants: 64,
            days: 366,
            broadcast_ok: true,
            bit_identical: true,
            errors: 0,
        }
    }

    #[test]
    fn rendered_json_strict_reparses_and_validates() {
        let json = render_json(Some(&sweep_result()), Some(&cluster_result()), true);
        gmr_json::parse(&json).expect("strict parse");
        assert_eq!(validate(&json), Vec::<String>::new());
        assert!(validate("[1, 2")
            .iter()
            .any(|e| e.contains("not strict JSON")));
        assert!(validate("{\"schema\": \"gmr-bench-scenario/v1\"}")
            .iter()
            .any(|e| e.contains("neither")));
    }

    #[test]
    fn sweep_gates_catch_regressions() {
        // Throughput below the 4x floor.
        let mut r = sweep_result();
        r.sweep_secs = 0.6; // 3.33x
        let json = render_json(Some(&r), None, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("below the 4x gate")));
        // A diverged summary.
        let mut r = sweep_result();
        r.bit_identical = false;
        let json = render_json(Some(&r), None, true);
        assert!(validate(&json).iter().any(|e| e.contains("diverged")));
        // An undersized sweep cannot satisfy the 256-variant gate.
        let mut r = sweep_result();
        r.variants = 128;
        let json = render_json(Some(&r), None, true);
        assert!(validate(&json).iter().any(|e| e.contains("gate names 256")));
        // Failed requests surface.
        let mut r = sweep_result();
        r.errors = 3;
        let json = render_json(Some(&r), None, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("3 failed requests")));
    }

    #[test]
    fn cluster_gates_catch_regressions() {
        // A backend that missed the admission broadcast.
        let mut r = cluster_result();
        r.broadcast_ok = false;
        let json = render_json(None, Some(&r), true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("missed the admission")));
        // A gateway-routed variant that diverged.
        let mut r = cluster_result();
        r.bit_identical = false;
        let json = render_json(None, Some(&r), true);
        assert!(validate(&json).iter().any(|e| e.contains("diverged")));
    }

    #[test]
    fn bench_spec_is_deterministic_and_compiles() {
        let a = bench_spec("x", 16);
        assert_eq!(a, bench_spec("x", 16), "spec must be a pure function");
        assert!(
            a.contains("\"dams\"") || a.contains("dam"),
            "dam sited: {a}"
        );
        let spec = gmr_scenario::parse_spec(&a).expect("rendered spec reparses");
        gmr_scenario::compile(&spec).expect("and compiles");
    }
}
