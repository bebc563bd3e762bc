//! `gmr-serve` — run, probe and provision the model-serving stack.
//!
//! ```sh
//! # Serve the built-in Table V model plus any artifact directory:
//! gmr-serve serve [--addr 127.0.0.1:0] [--artifacts DIR] [--port-file P]
//!                 [--journal PATH] [--workers N] [--days N] [--seed S]
//!                 [--no-builtin]
//!
//! # Export the built-in expert model as a gmr-model/v1 artifact:
//! gmr-serve export --out models/table5-manual.json
//!
//! # One HTTP request from the shell (no curl in the CI container):
//! gmr-serve request 127.0.0.1:8080 GET /healthz
//! gmr-serve request 127.0.0.1:8080 POST /simulate --data '{...}'
//! ```
//!
//! `serve` hosts two forcing tables generated from the synthetic Nakdong
//! dataset: `"target"` (the S1 forcing rows, for single-trajectory
//! `forcings_ref` requests — these coalesce into batched sweeps) and
//! `"network"` (all stations' forcings + flows, for `"network": true`
//! requests against topology-carrying models).

use gmr_hydro::SyntheticConfig;
use gmr_serve::batch::Tables;
use gmr_serve::server::Client;
use gmr_serve::{
    sig, Cluster, ClusterConfig, Gateway, GatewayConfig, ModelArtifact, ModelRegistry, Server,
    ServerConfig,
};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gmr-serve serve [--addr A] [--artifacts DIR] [--port-file P] [--journal P]
                       [--workers N] [--conn-queue N] [--sim-queue N]
                       [--days N] [--seed S] [--no-builtin] [--hot-models N]
                       [--fidelity bit-exact|allow-relaxed]
       gmr-serve cluster --backends N [--addr A] [--artifacts DIR] [--port-file P]
                         [--journal P] [--hot-models N] [--dir DIR] [--restart-budget N]
                         [serve flags forwarded to backends]
       gmr-serve export --out PATH
       gmr-serve scenario-spec [--name S] [--seed N] [--stations N] [--years N]
                               [--kind mainstem|tributaries|braided] [--spread X]
                               [--out PATH]
       gmr-serve request ADDR METHOD PATH [--data JSON | --body-file FILE]
                         [--repeat N] [-v]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("scenario-spec") => cmd_scenario_spec(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        _ => usage(),
    }
}

/// Pull `--flag value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Refuse any argument that is not a known flag (value flags must carry a
/// value), so a stale or misspelt flag stops the command instead of being
/// silently ignored.
fn check_flags(
    args: &[String],
    value_flags: &[&[&str]],
    bare_flags: &[&str],
) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if value_flags.iter().any(|set| set.contains(&a.as_str())) {
            if rest.next().is_none() {
                return Err(format!("{a} needs a value"));
            }
        } else if !bare_flags.contains(&a.as_str()) {
            return Err(format!("unrecognised argument: {a}"));
        }
    }
    Ok(())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(
        args,
        &[OWN_FLAGS, FORWARDED_VALUE_FLAGS],
        FORWARDED_BARE_FLAGS,
    ) {
        eprintln!("{e}");
        return usage();
    }
    sig::install();
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    let policy = match flag(args, "--fidelity") {
        None => gmr_expr::FidelityPolicy::default(),
        Some(name) => match gmr_expr::FidelityPolicy::parse(&name) {
            Some(p) => p,
            None => {
                eprintln!("bad --fidelity: {name} (expected bit-exact|allow-relaxed)");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut registry = ModelRegistry::with_policy(policy);
    if !args.iter().any(|a| a == "--no-builtin") {
        if let Err(e) = registry.insert(ModelArtifact::builtin_manual()) {
            eprintln!("builtin model rejected: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = flag(args, "--artifacts") {
        match registry.load_dir(&dir) {
            Ok(n) => eprintln!("loaded {n} artifact(s) from {dir}"),
            Err(e) => {
                eprintln!("artifact load failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (seed, days, workers, conn_queue, sim_queue, hot_models) = match (|| {
        Ok::<_, String>((
            parse_flag(args, "--seed", SyntheticConfig::default().seed)?,
            flag(args, "--days")
                .map(|v| v.parse::<usize>().map_err(|_| format!("bad --days: {v}")))
                .transpose()?,
            parse_flag(args, "--workers", ServerConfig::default().workers)?,
            parse_flag(args, "--conn-queue", ServerConfig::default().conn_queue)?,
            parse_flag(args, "--sim-queue", ServerConfig::default().sim_queue)?,
            parse_flag(args, "--hot-models", 0usize)?,
        ))
    })() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let tables = Tables::synthetic(seed, days);
    let config = ServerConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        workers,
        conn_queue,
        sim_queue,
        hot_models,
        ..ServerConfig::default()
    };
    let handle = match Server::new(config, registry, tables).start() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    if let Some(path) = flag(args, "--port-file") {
        // The port file is how ci.sh discovers the ephemeral port; write
        // it atomically (rename) so a polling reader never sees a prefix.
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_err()
        {
            eprintln!("cannot write port file {path}");
            return ExitCode::FAILURE;
        }
    }
    println!("gmr-serve listening on {addr}");
    while !sig::terminated() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("termination signal observed; draining");
    handle.shutdown();
    if let Some(path) = flag(args, "--journal") {
        if let Err(e) = gmr_obsv::write_jsonl(&path) {
            eprintln!("journal write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("drained cleanly");
    ExitCode::SUCCESS
}

/// Value flags `serve` and `cluster` each apply to their own process.
const OWN_FLAGS: &[&str] = &["--addr", "--port-file", "--journal"];

/// Backend flags `cluster` forwards verbatim to every spawned `serve`
/// process: value-carrying flags first, then bare switches.
const FORWARDED_VALUE_FLAGS: &[&str] = &[
    "--artifacts",
    "--days",
    "--seed",
    "--workers",
    "--conn-queue",
    "--sim-queue",
    "--fidelity",
    "--hot-models",
];
const FORWARDED_BARE_FLAGS: &[&str] = &["--no-builtin"];

/// Value flags only `cluster` takes.
const CLUSTER_FLAGS: &[&str] = &["--backends", "--dir", "--restart-budget"];

fn cmd_cluster(args: &[String]) -> ExitCode {
    let value_flags = [OWN_FLAGS, CLUSTER_FLAGS, FORWARDED_VALUE_FLAGS];
    if let Err(e) = check_flags(args, &value_flags, FORWARDED_BARE_FLAGS) {
        eprintln!("{e}");
        return usage();
    }
    sig::install();
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    let backends = match parse_flag(args, "--backends", 0usize) {
        Ok(n) if n >= 1 => n,
        Ok(_) => {
            eprintln!("cluster needs --backends N (N >= 1)");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = flag(args, "--dir").map_or_else(
        || std::env::temp_dir().join(format!("gmr-cluster-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let mut config = ClusterConfig::new(backends, exe, dir);
    config.restart_budget = match parse_flag(args, "--restart-budget", config.restart_budget) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for &name in FORWARDED_VALUE_FLAGS {
        if let Some(v) = flag(args, name) {
            config.backend_args.push(name.into());
            config.backend_args.push(v);
        }
    }
    for &name in FORWARDED_BARE_FLAGS {
        if args.iter().any(|a| a == name) {
            config.backend_args.push(name.into());
        }
    }
    let gw_workers = GatewayConfig::default().workers;
    if flag(args, "--workers").is_none() {
        // Capacity rule: every gateway worker can park one idle
        // keep-alive connection per backend, so a backend needs more
        // workers than the gateway has — otherwise health probes and
        // fresh requests queue behind idle connections.
        config.backend_args.push("--workers".into());
        config.backend_args.push((gw_workers + 2).to_string());
    }
    let cluster = match Cluster::start(config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cluster start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let gw_config = GatewayConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        ..GatewayConfig::default()
    };
    let gateway = match Gateway::new(gw_config, cluster.slots()).start() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("gateway bind failed: {e}");
            cluster.shutdown();
            return ExitCode::FAILURE;
        }
    };
    let addr = gateway.addr();
    if let Some(path) = flag(args, "--port-file") {
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_err()
        {
            eprintln!("cannot write port file {path}");
            gateway.shutdown();
            cluster.shutdown();
            return ExitCode::FAILURE;
        }
    }
    println!("gmr-serve cluster: gateway on {addr}, {backends} backend(s)");
    while !sig::terminated() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("termination signal observed; draining cluster");
    gateway.shutdown();
    cluster.shutdown();
    if let Some(path) = flag(args, "--journal") {
        if let Err(e) = gmr_obsv::write_jsonl(&path) {
            eprintln!("journal write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("cluster drained cleanly");
    ExitCode::SUCCESS
}

fn cmd_export(args: &[String]) -> ExitCode {
    let Some(out) = flag(args, "--out") else {
        eprintln!("export needs --out PATH");
        return ExitCode::from(2);
    };
    let artifact = ModelArtifact::builtin_manual();
    match artifact.save(&out) {
        Ok(()) => {
            println!("wrote {} ({})", out, artifact.name);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("export failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generate a well-formed `gmr-scenario/v1` spec (the `POST /scenarios`
/// body format): a climate-transform chain plus one dam placed on a
/// station the seeded topology is guaranteed to accept (physical,
/// upstream of the outlet). What CI feeds the scenario smoke test.
fn cmd_scenario_spec(args: &[String]) -> ExitCode {
    let (name, seed, stations, years, kind, spread) = match (|| {
        Ok::<_, String>((
            flag(args, "--name").unwrap_or_else(|| "ci-what-if".into()),
            parse_flag(args, "--seed", 7u64)?,
            parse_flag(args, "--stations", 24usize)?,
            parse_flag(args, "--years", 1usize)?,
            flag(args, "--kind").unwrap_or_else(|| "braided".into()),
            parse_flag(args, "--spread", 0.25f64)?,
        ))
    })() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Validate the damless skeleton through the real parser — every range
    // check the server's admission gate would apply runs here first. A
    // seed from 2^53 up is written as a string, as `render_spec` does.
    let mut seed_json = String::new();
    gmr_json::push_u64(&mut seed_json, seed);
    let skeleton = format!(
        r#"{{"schema": "{}", "name": "{name}", "seed": {seed_json},
  "topology": {{"kind": "{kind}", "stations": {stations}}},
  "years": {years},
  "climate": [{{"kind": "monsoon_shift", "days": 10}},
              {{"kind": "heatwave", "start_day": 185, "length": 15, "amp": 3}},
              {{"kind": "drought", "scale": 0.8}}],
  "spread": {spread}}}"#,
        gmr_scenario::SCHEMA
    );
    let mut spec = match gmr_scenario::parse_spec(&skeleton) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid spec parameters: {e}");
            return ExitCode::from(2);
        }
    };
    // Grow the topology this spec will compile to and site the dam on a
    // physical (non-confluence) station that is not the outlet — chosen
    // deterministically, so the emitted spec is a pure function of the
    // flags.
    let (net, _envs) = gmr_scenario::topology::build_topology(&spec);
    let outlet = net.outlet();
    let dam_station = net
        .stations()
        .filter(|(sid, st)| *sid != outlet && st.kind != gmr_hydro::StationKind::Virtual)
        .map(|(_, st)| st.name.clone())
        .last();
    if let Some(station) = dam_station {
        spec.transforms
            .push(gmr_scenario::Transform::Dam(gmr_scenario::DamSpec {
                station,
                capacity: 200_000.0,
                release: vec![0.6; 12],
                overflow: 0.75,
            }));
    }
    let rendered = format!("{}\n", gmr_scenario::render_spec(&spec));
    match flag(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({name}: {stations} stations, {years} year(s))");
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn cmd_request(args: &[String]) -> ExitCode {
    let (Some(addr), Some(method), Some(path)) = (args.first(), args.get(1), args.get(2)) else {
        return usage();
    };
    let body = if let Some(data) = flag(args, "--data") {
        data.into_bytes()
    } else if let Some(file) = flag(args, "--body-file").or_else(|| flag(args, "--body")) {
        match std::fs::read(&file) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };
    let addr = match addr.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("bad address {addr:?} (want HOST:PORT)");
            return ExitCode::from(2);
        }
    };
    let repeat = match parse_flag(args, "--repeat", 1usize) {
        Ok(n) => n.max(1),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let verbose = args.iter().any(|a| a == "-v" || a == "--verbose");
    // One keep-alive connection for the whole sequence: `--repeat N`
    // rides a single TCP stream instead of paying a handshake per call.
    let mut client = Client::new(addr);
    let mut code = ExitCode::SUCCESS;
    for _ in 0..repeat {
        match client.request(method, path, &body) {
            Ok(resp) => {
                eprintln!("HTTP {}", resp.status);
                if verbose {
                    // The trace id the request was served under — grep the
                    // gateway/backend journals (or a stitched trace) for it.
                    match &resp.trace {
                        Some(t) => eprintln!("X-Gmr-Trace: {t}"),
                        None => eprintln!("X-Gmr-Trace: (none)"),
                    }
                }
                print!("{}", String::from_utf8_lossy(&resp.body));
                if !(200..300).contains(&resp.status) {
                    code = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}
