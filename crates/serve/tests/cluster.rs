//! Cluster-serving tests: real backend processes behind the gateway.
//!
//! Three contracts from the cluster design, pinned end to end:
//!
//! * **Bit-identity** — a `/simulate` answered through the gateway is
//!   byte-identical to the same request against a solo in-process server
//!   hosting the same tables (the gateway forwards bodies untouched, and
//!   every backend computes the same trajectories).
//! * **Deterministic routing** — one (model, table) pair lands on exactly
//!   one live backend, every time.
//! * **Failover** — killing a backend mid-load never hangs a client:
//!   requests drain on surviving backends (or shed with an explicit
//!   status), and the supervisor restarts the victim.
//! * **Traceability** — journals written by a real `gmr-serve cluster`
//!   run stitch into one cross-process Chrome trace in which every
//!   gateway `/simulate` hop resolves to exactly one backend span.
//! * **One metrics document** — the gateway's `/metrics` `fleet` snapshot
//!   is the field-by-field sum of the backends' snapshots it carries.
//!
//! Backends are the crate's own binary (`CARGO_BIN_EXE_gmr-serve`), so
//! these tests exercise the same process-supervision path `gmr-serve
//! cluster` ships; tests of the gateway alone run in-process servers.

use gmr_hydro::SyntheticConfig;
use gmr_json::Value;
use gmr_serve::batch::Tables;
use gmr_serve::gateway::BackendSlot;
use gmr_serve::server::{http_request, read_response_full, write_request};
use gmr_serve::{
    Cluster, ClusterConfig, Gateway, GatewayConfig, ModelArtifact, ModelRegistry, Server,
    ServerConfig, ServerHandle,
};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DAYS: usize = 150;

fn exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_gmr-serve"))
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gmr-cluster-test-{tag}-{}", std::process::id()))
}

/// The same hosted tables `gmr-serve serve --days DAYS` builds (default
/// seed), for the solo reference server.
fn reference_tables() -> Tables {
    Tables::synthetic(SyntheticConfig::default().seed, Some(DAYS))
}

/// An in-process server hosting MANUAL over the reference tables.
fn solo_server() -> ServerHandle {
    let mut registry = ModelRegistry::new();
    registry.insert(ModelArtifact::builtin_manual()).unwrap();
    Server::new(ServerConfig::default(), registry, reference_tables())
        .start()
        .unwrap()
}

fn start_cluster(tag: &str, backends: usize, tweak: impl FnOnce(&mut ClusterConfig)) -> Cluster {
    let mut config = ClusterConfig::new(backends, exe(), scratch(tag));
    // Capacity rule (see `cmd_cluster`): backend workers must exceed the
    // gateway's, or idle pooled connections park every backend worker.
    let workers = GatewayConfig::default().workers + 2;
    config.backend_args.extend([
        "--days".into(),
        DAYS.to_string(),
        "--workers".into(),
        workers.to_string(),
    ]);
    tweak(&mut config);
    Cluster::start(config).expect("cluster must start")
}

fn sim_body(model: &str) -> String {
    format!(r#"{{"model": "{model}", "forcings_ref": "target"}}"#)
}

/// Per-backend `/simulate` counts from the gateway's `/metrics`: the
/// `serve.batch_size` histogram only records when a simulation ran.
fn sim_counts(gateway_addr: SocketAddr) -> Vec<u64> {
    let (status, bytes) = http_request(gateway_addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let v = gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    v.get("backends")
        .and_then(Value::as_arr)
        .expect("gateway metrics carry a backends array")
        .iter()
        .map(|b| {
            b.get("metrics")
                .and_then(|m| m.get("serve.batch_size"))
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        })
        .collect()
}

#[test]
fn gateway_is_bit_identical_to_solo_and_routes_deterministically() {
    let cluster = start_cluster("bitident", 2, |_| {});
    let gateway = Gateway::new(GatewayConfig::default(), cluster.slots())
        .start()
        .unwrap();

    // Solo reference: same model, same hosted tables, in-process.
    let solo = solo_server();

    let body = sim_body("table5-manual");
    let (solo_status, solo_bytes) =
        http_request(solo.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
    assert_eq!(solo_status, 200, "{}", String::from_utf8_lossy(&solo_bytes));

    let before = sim_counts(gateway.addr());
    const N: u64 = 6;
    for _ in 0..N {
        let (status, bytes) =
            http_request(gateway.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        assert_eq!(
            bytes, solo_bytes,
            "gateway response must be byte-identical to the solo server"
        );
    }

    // Deterministic routing: all N simulations on exactly one backend.
    let after = sim_counts(gateway.addr());
    let deltas: Vec<u64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    assert_eq!(deltas.iter().sum::<u64>(), N, "deltas: {deltas:?}");
    assert_eq!(
        deltas.iter().filter(|&&d| d > 0).count(),
        1,
        "one (model, table) pair must pin to one backend: {deltas:?}"
    );

    // `/models` through the gateway reflects the replicated registry.
    let (status, bytes) = http_request(gateway.addr(), "GET", "/models", b"").unwrap();
    assert_eq!(status, 200);
    let v = gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let names: Vec<&str> = v
        .get("models")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, ["table5-manual"]);

    solo.shutdown();
    gateway.shutdown();
    cluster.shutdown();
}

#[test]
fn failover_drains_requests_and_supervisor_restarts_the_victim() {
    let cluster = start_cluster("failover", 2, |c| {
        c.health_interval = Duration::from_millis(100);
    });
    let gateway = Gateway::new(GatewayConfig::default(), cluster.slots())
        .start()
        .unwrap();
    let body = sim_body("table5-manual");

    // Find the owner of this key, then kill it.
    let before = sim_counts(gateway.addr());
    let (status, _) = http_request(gateway.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let after = sim_counts(gateway.addr());
    let owner = (0..after.len())
        .find(|&i| after[i] > before[i])
        .expect("some backend served the probe");
    cluster.kill_backend(owner);

    // Mid-failure requests must complete promptly — drained by the
    // surviving backend or shed with an explicit status, never hung.
    let t0 = Instant::now();
    for _ in 0..5 {
        let (status, bytes) =
            http_request(gateway.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
        assert!(
            status == 200 || status == 429 || status == 503,
            "unexpected status {status}: {}",
            String::from_utf8_lossy(&bytes)
        );
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "failover requests must not park behind a dead backend"
    );
    // With one backend dead the walk lands on the survivor — requests
    // keep draining.
    let (status, _) = http_request(gateway.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
    assert_eq!(status, 200, "survivor must absorb the orphaned keyspace");

    // The supervisor restarts the victim and the gateway sees 2 live
    // backends again.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, bytes) = http_request(gateway.addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(status, 200);
        let v = gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        if v.get("alive").and_then(Value::as_u64) == Some(2) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backend was not restarted: {}",
            String::from_utf8_lossy(&bytes)
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // And the restarted backend serves its keyspace again.
    let (status, _) = http_request(gateway.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
    assert_eq!(status, 200);

    gateway.shutdown();
    cluster.shutdown();
}

/// The tentpole's end-to-end contract: real traffic through the shipped
/// `gmr-serve cluster` subcommand with journals on, then an in-process
/// stitch of the gateway + backend journals. The resulting Chrome trace
/// must strict-reparse, span all three processes, and resolve every
/// gateway `/simulate` hop to exactly one backend access span — the same
/// check `gmr-trace stitch` enforces with a non-zero exit.
#[test]
fn cluster_journals_stitch_into_one_trace_with_no_orphans() {
    use gmr_obsv::json::Value as J;

    let dir = scratch("stitch");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let port_file = dir.join("gateway.port");
    let gw_journal = dir.join("gateway.jsonl");
    let mut child = std::process::Command::new(exe())
        .args(["cluster", "--backends", "2", "--days", &DAYS.to_string()])
        .arg("--dir")
        .arg(&dir)
        .arg("--port-file")
        .arg(&port_file)
        .arg("--journal")
        .arg(&gw_journal)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn gmr-serve cluster");

    let deadline = Instant::now() + Duration::from_secs(60);
    let addr: SocketAddr = loop {
        if let Some(a) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|t| t.trim().parse().ok())
        {
            break a;
        }
        assert!(
            Instant::now() < deadline,
            "gateway port file never appeared"
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    // Traced traffic: every response must echo an `X-Gmr-Trace` context.
    const N: usize = 8;
    let body = sim_body("table5-manual");
    let mut client = gmr_serve::server::Client::new(addr);
    for _ in 0..N {
        let resp = client
            .request("POST", "/simulate", body.as_bytes())
            .expect("simulate through the cluster");
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let trace = resp.trace.expect("response must carry X-Gmr-Trace");
        assert!(
            trace.split_once('-').is_some(),
            "trace header must be trace-span: {trace}"
        );
    }

    // Graceful drain: the gateway process and every backend write their
    // journals on SIGTERM.
    assert!(gmr_serve::sig::terminate_pid(child.id()));
    let status = child.wait().expect("cluster exit");
    assert!(status.success(), "cluster must drain cleanly");

    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("journal {}: {e}", p.display()))
    };
    let inputs = vec![
        ("gateway".to_string(), read(&gw_journal)),
        ("backend-0".to_string(), read(&dir.join("backend-0.jsonl"))),
        ("backend-1".to_string(), read(&dir.join("backend-1.jsonl"))),
    ];
    let stitched = gmr_obsv::trace::stitch(&inputs).expect("journals must stitch");
    assert!(
        stitched.hops >= N,
        "every proxied /simulate is a hop: {} < {N}",
        stitched.hops
    );
    assert_eq!(
        stitched.orphans,
        Vec::<String>::new(),
        "every gateway hop must resolve to a backend span"
    );
    assert_eq!(stitched.resolved, stitched.hops);

    // The merged trace strict-reparses, carries one track per process,
    // and the gateway→backend flows survived the merge.
    let v = gmr_obsv::json::parse(&stitched.chrome).expect("stitched trace must be strict JSON");
    let events = v
        .get("traceEvents")
        .and_then(J::as_arr)
        .expect("traceEvents array");
    let pids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(J::as_u64))
        .collect();
    assert!(
        pids.len() >= 3,
        "gateway + 2 backends must each own a track: {pids:?}"
    );
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(J::as_str) == Some("s")));
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(J::as_str) == Some("f")));

    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-rolled backend that always sheds with `Retry-After: 7` — pins
/// the gateway's 429 propagation contract: backend 429s are final
/// (no failover) and the retry hint passes through verbatim.
#[test]
fn gateway_propagates_backend_429_and_retry_after() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                while gmr_serve::http::read_request(&mut reader)
                    .ok()
                    .flatten()
                    .is_some()
                {
                    let body = br#"{"error": "backend saturated"}"#;
                    let head = format!(
                        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                         Content-Length: {}\r\nRetry-After: 7\r\n\r\n",
                        body.len()
                    );
                    use std::io::Write;
                    if stream
                        .write_all(head.as_bytes())
                        .and_then(|()| stream.write_all(body))
                        .is_err()
                    {
                        return;
                    }
                }
            });
        }
    });

    let slots: Arc<Vec<BackendSlot>> = Arc::new(vec![BackendSlot::default()]);
    slots[0].set_addr(addr);
    let gateway = Gateway::new(GatewayConfig::default(), Arc::clone(&slots))
        .start()
        .unwrap();

    let mut stream = TcpStream::connect(gateway.addr()).unwrap();
    write_request(
        &mut stream,
        "POST",
        "/simulate",
        sim_body("table5-manual").as_bytes(),
        true,
    )
    .unwrap();
    let resp = read_response_full(&mut BufReader::new(stream)).unwrap();
    assert_eq!(resp.status, 429, "backend 429 must propagate");
    assert_eq!(
        resp.retry_after,
        Some(7),
        "the backend's Retry-After must pass through verbatim"
    );
    assert!(String::from_utf8_lossy(&resp.body).contains("backend saturated"));
    gateway.shutdown();
}

/// The gateway parses `/simulate` and `/sweep` bodies itself to route
/// them, so a hostile body must be refused there with a 400 — not take
/// down a gateway worker — and the gateway must keep serving. A known
/// route asked with a method it does not answer is a 405 there too.
#[test]
fn gateway_answers_hostile_nesting_with_400_and_keeps_serving() {
    let backend = solo_server();
    let slots: Arc<Vec<BackendSlot>> = Arc::new(vec![BackendSlot::default()]);
    slots[0].set_addr(backend.addr());
    let gateway = Gateway::new(GatewayConfig::default(), slots)
        .start()
        .unwrap();

    let deep = "[".repeat(20_000);
    for path in ["/simulate", "/sweep"] {
        let (status, bytes) = http_request(gateway.addr(), "POST", path, deep.as_bytes()).unwrap();
        assert_eq!(status, 400, "{path}: {}", String::from_utf8_lossy(&bytes));
    }
    for (method, path) in [("PUT", "/simulate"), ("DELETE", "/scenarios")] {
        let (status, _) = http_request(gateway.addr(), method, path, b"").unwrap();
        assert_eq!(status, 405, "{method} {path}");
    }
    let body = sim_body("table5-manual");
    let (status, bytes) =
        http_request(gateway.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
    gateway.shutdown();
    backend.shutdown();
}

/// Scenario serving at cluster scale: `POST /scenarios` broadcasts to
/// every backend (any backend may later be asked to resolve the
/// scenario), `/sweep` routes by (model, scenario) through the ring, and
/// a sweep summary answered through the gateway is bit-identical to the
/// summary reduced from a solo `/simulate` of the same `scn:` ref —
/// which itself hashes to a *different* ring key and may land on the
/// other backend.
#[test]
fn scenario_sweep_through_gateway_matches_solo_refs() {
    let cluster = start_cluster("scenario", 2, |_| {});
    let gateway = Gateway::new(GatewayConfig::default(), cluster.slots())
        .start()
        .unwrap();
    let addr = gateway.addr();

    let spec = r#"{"schema": "gmr-scenario/v1", "name": "cluster-wet", "seed": 31,
                   "topology": {"kind": "tributaries", "stations": 10},
                   "years": 1,
                   "climate": [{"kind": "heatwave", "start_day": 170, "length": 20, "amp": 2.5}],
                   "spread": 0.3}"#;
    let (status, bytes) = http_request(addr, "POST", "/scenarios", spec.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));

    // Both backends host it: the gateway's own listing (forwarded to one
    // backend) and a direct probe of each backend agree.
    for slot in cluster.slots().iter() {
        let backend = slot.addr().expect("backend alive");
        let (status, bytes) = http_request(backend, "GET", "/scenarios", b"").unwrap();
        assert_eq!(status, 200);
        assert!(
            String::from_utf8_lossy(&bytes).contains("cluster-wet"),
            "scenario admission must broadcast to every backend"
        );
    }

    // Re-admission through the gateway is an idempotent broadcast...
    let (status, _) = http_request(addr, "POST", "/scenarios", spec.as_bytes()).unwrap();
    assert_eq!(status, 200);
    // ...and a mutated spec under the same name is refused by the fleet.
    let mutated = spec.replace("\"seed\": 31", "\"seed\": 32");
    let (status, _) = http_request(addr, "POST", "/scenarios", mutated.as_bytes()).unwrap();
    assert_eq!(status, 409, "scenario names are immutable cluster-wide");

    let threshold = 24.0;
    let sweep = format!(
        r#"{{"scenario": "cluster-wet", "model": "table5-manual", "variants": 4,
             "reduce": {{"threshold": {threshold}}}}}"#
    );
    let (status, bytes) = http_request(addr, "POST", "/sweep", sweep.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
    let v = gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let summaries = v.get("summaries").and_then(Value::as_arr).unwrap();
    assert_eq!(summaries.len(), 4);

    let reduce = gmr_scenario::ReduceSpec { threshold };
    for (i, s) in summaries.iter().enumerate() {
        let got = gmr_scenario::SweepSummary::from_value(s).expect("well-formed summary");
        let body =
            format!(r#"{{"model": "table5-manual", "forcings_ref": "scn:cluster-wet/{i}"}}"#);
        let (status, bytes) = http_request(addr, "POST", "/simulate", body.as_bytes()).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        let solo = gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let series = |key: &str| -> Vec<f64> {
            solo.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .collect()
        };
        let want = gmr_scenario::reduce_series(i as u32, &reduce, &series("bphy"), &series("bzoo"));
        assert_eq!(
            got, want,
            "variant {i}: gateway sweep summary != gateway solo-reduced"
        );
    }

    gateway.shutdown();
    cluster.shutdown();
}

/// The integer fields of a `/metrics` snapshot.
fn integers(snapshot: &Value) -> BTreeMap<String, u64> {
    let Value::Obj(fields) = snapshot else {
        panic!("snapshot is not an object: {snapshot:?}");
    };
    fields
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
        .collect()
}

/// A `/metrics` histogram as `(count, sum, buckets)`.
fn histogram(v: &Value) -> (u64, u64, BTreeMap<u64, u64>) {
    let int = |key| v.get(key).and_then(Value::as_u64).unwrap();
    let pairs = v.get("buckets").and_then(Value::as_arr).unwrap();
    let buckets = pairs.iter().map(|p| {
        let p = p.as_arr().unwrap();
        (p[0].as_u64().unwrap(), p[1].as_u64().unwrap())
    });
    (int("count"), int("sum"), buckets.collect())
}

/// The gateway's `/metrics` is one document of four sections, and its
/// `fleet` snapshot adds up the backend snapshots it also carries: every
/// integer field is the sum over `backends[*].metrics`, and
/// `serve.latency_us` their count-, sum- and bucket-wise sum.
#[test]
fn gateway_fleet_metrics_are_the_sum_of_the_backends() {
    let backends = [solo_server(), solo_server()];
    let slots: Arc<Vec<BackendSlot>> = Arc::new((0..2).map(|_| BackendSlot::default()).collect());
    for (slot, backend) in slots.iter().zip(&backends) {
        slot.set_addr(backend.addr());
    }
    let gateway = Gateway::new(GatewayConfig::default(), slots)
        .start()
        .unwrap();
    // Uneven traffic: one request to backend 0, three to backend 1, and
    // three through the gateway.
    let (b0, b1, gw) = (backends[0].addr(), backends[1].addr(), gateway.addr());
    for addr in [b0, b1, b1, b1, gw, gw, gw] {
        let body = sim_body("table5-manual");
        let (status, _) = http_request(addr, "POST", "/simulate", body.as_bytes()).unwrap();
        assert_eq!(status, 200);
    }

    let (status, bytes) = http_request(gw, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let doc = gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let Value::Obj(sections) = &doc else {
        panic!("metrics document is not an object: {doc:?}");
    };
    let keys: Vec<&str> = sections.keys().map(String::as_str).collect();
    assert_eq!(keys, ["backends", "fleet", "gateway", "slo"]);
    let fleet = &sections["fleet"];
    let snapshots: Vec<&Value> = sections["backends"]
        .as_arr()
        .unwrap()
        .iter()
        .map(|b| b.get("metrics").expect("each backend answered"))
        .collect();
    assert_eq!(snapshots.len(), 2);

    let mut sums = BTreeMap::new();
    let mut latency = (0, 0, BTreeMap::new());
    for snapshot in &snapshots {
        for (name, n) in integers(snapshot) {
            *sums.entry(name).or_insert(0) += n;
        }
        let (count, sum, buckets) = histogram(snapshot.get("serve.latency_us").unwrap());
        latency.0 += count;
        latency.1 += sum;
        for (i, c) in buckets {
            *latency.2.entry(i).or_insert(0) += c;
        }
    }
    assert_eq!(integers(fleet), sums);
    assert_eq!(sums["serve.requests_total"], 7);
    assert_eq!(histogram(fleet.get("serve.latency_us").unwrap()), latency);
    assert_eq!(latency.0, 7);

    gateway.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}
