//! End-to-end serving-stack tests over real sockets.
//!
//! The load-bearing contract: a `/simulate` response — batched or not —
//! carries trajectories *bit-identical* to in-process evaluation of the
//! same compiled system. JSON is a text protocol, so this only holds
//! because `gmr_json::push_f64` renders shortest-round-trip floats; these
//! tests pin the whole chain (artifact → registry → HTTP → batcher → VM →
//! JSON → parse) end to end.

use gmr_bio::{
    simulate_network_compiled, NetworkSimOptions, RiverProblem, SimOptions, StationSeries,
};
use gmr_core::Gmr;
use gmr_expr::{CompiledSystem, Tier};
use gmr_gp::GpConfig;
use gmr_hydro::{generate, SyntheticConfig, NUM_VARS};
use gmr_json::{push_f64, Value};
use gmr_serve::batch::{simulate_single, HostedTable, Tables};
use gmr_serve::server::{http_request, read_response, write_request};
use gmr_serve::{ModelArtifact, ModelRegistry, Server, ServerConfig, ServerHandle};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn rows(n: usize) -> Vec<[f64; NUM_VARS]> {
    (0..n)
        .map(|t| {
            let mut r = [0.0; NUM_VARS];
            for (j, cell) in r.iter_mut().enumerate() {
                *cell = ((t * 11 + j * 5) as f64 * 0.07).sin().abs() * 25.0 + 0.2;
            }
            r
        })
        .collect()
}

fn start(
    table_days: usize,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (ServerHandle, Vec<[f64; NUM_VARS]>) {
    let mut registry = ModelRegistry::new();
    registry.insert(ModelArtifact::builtin_manual()).unwrap();
    let table = rows(table_days);
    let mut tables = Tables::new();
    tables.insert("t", HostedTable::Single(table.clone()));
    let mut config = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    let handle = Server::new(config, registry, tables).start().unwrap();
    (handle, table)
}

/// MANUAL compiled the way a server's registry compiles it.
fn manual_system() -> Arc<CompiledSystem> {
    let mut registry = ModelRegistry::new();
    registry.insert(ModelArtifact::builtin_manual()).unwrap();
    registry.touch("table5-manual").unwrap().system.clone()
}

fn json_series(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("response missing {key}: {v:?}"))
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect()
}

fn post_simulate(handle: &ServerHandle, body: &str) -> (u16, Value) {
    let (status, bytes) =
        http_request(handle.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    (
        status,
        gmr_json::parse(&text).expect("response must be strict JSON"),
    )
}

#[test]
fn simulate_is_bit_identical_to_in_process_evaluation() {
    let (handle, table) = start(140, |_| {});
    let opts = SimOptions::default();
    let problem = RiverProblem {
        forcings: table.clone(),
        observed: vec![0.0; table.len()],
        opts,
    };
    let system = manual_system();
    let want_bphy = problem.simulate_compiled(&system);
    let (_, want_bzoo) = simulate_single(&system, &table, opts.init, opts.dt, opts.state_cap);

    // Via the hosted table.
    let (status, v) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings_ref": "t"}"#,
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(
        json_series(&v, "bphy"),
        want_bphy,
        "ref-table bphy must be bit-identical"
    );
    assert_eq!(json_series(&v, "bzoo"), want_bzoo);

    // And via inline forcings (floats round-tripped through JSON text).
    let mut body = String::from(r#"{"model": "table5-manual", "forcings": ["#);
    for (i, row) in table.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push('[');
        for (j, &x) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            push_f64(&mut body, x);
        }
        body.push(']');
    }
    body.push_str("]}");
    let (status, v) = post_simulate(&handle, &body);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(
        json_series(&v, "bphy"),
        want_bphy,
        "inline bphy must be bit-identical"
    );
    assert_eq!(json_series(&v, "bzoo"), want_bzoo);
    handle.shutdown();
}

#[test]
fn concurrent_same_model_requests_coalesce_and_stay_exact() {
    let (handle, table) = start(200, |c| c.workers = 8);
    let system = manual_system();
    let inits = [
        (8.0, 1.2),
        (2.0, 0.3),
        (12.5, 2.5),
        (0.5, 0.05),
        (30.0, 4.0),
        (5.0, 1.0),
    ];
    let addr = handle.addr();
    let threads: Vec<_> = inits
        .iter()
        .map(|&(p, z)| {
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"model": "table5-manual", "forcings_ref": "t", "init": [{p}, {z}]}}"#
                );
                let (status, bytes) =
                    http_request(addr, "POST", "/simulate", body.as_bytes()).unwrap();
                (status, String::from_utf8(bytes).unwrap())
            })
        })
        .collect();
    // However the six requests happen to share sweeps, each answer must be
    // bit-exact. That they do share one when queued together is pinned by
    // construction in `batch.rs`'s `batcher_coalesces_ref_jobs_and_answers_all`.
    for (t, &init) in threads.into_iter().zip(&inits) {
        let (status, text) = t.join().unwrap();
        assert_eq!(status, 200, "{text}");
        let v = gmr_json::parse(&text).unwrap();
        let want = simulate_single(&system, &table, init, 1.0, 1e9);
        assert_eq!(
            json_series(&v, "bphy"),
            want.0,
            "init {init:?} diverged under batching"
        );
        assert_eq!(json_series(&v, "bzoo"), want.1);
    }
    handle.shutdown();
}

#[test]
fn bad_inputs_get_4xx_and_the_server_stays_healthy() {
    let (handle, _) = start(30, |_| {});
    // NaN forcings arrive as JSON null under a strict parser: 400.
    let (status, v) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings": [[1,2,3,4,null,6,7,8,9,10]]}"#,
    );
    assert_eq!(status, 400, "{v:?}");
    // Wrong arity row: 400.
    let (status, _) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings": [[1,2]]}"#,
    );
    assert_eq!(status, 400);
    // Unknown model: 404.
    let (status, _) = post_simulate(&handle, r#"{"model": "nope", "forcings_ref": "t"}"#);
    assert_eq!(status, 404);
    // Unknown hosted table: 404.
    let (status, _) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings_ref": "x"}"#,
    );
    assert_eq!(status, 404);
    // days beyond the table: 400.
    let (status, _) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings_ref": "t", "days": 4000}"#,
    );
    assert_eq!(status, 400);
    // An unknown key, a wrong-typed field or a non-object: 400, never a
    // quiet default (a misspelt "days" would simulate the whole table).
    for body in [
        r#"{"model": "table5-manual", "forcings_ref": "t", "day": 3}"#,
        r#"{"model": "table5-manual", "forcings_ref": "t", "mode": 1}"#,
        r#"{"model": "table5-manual", "forcings_ref": "t", "network": "true"}"#,
        r#"{"model": "table5-manual", "forcings_ref": "t", "network": true, "station": 1}"#,
        r#"["table5-manual", "t"]"#,
    ] {
        let (status, v) = post_simulate(&handle, body);
        assert_eq!(status, 400, "{body}: {v:?}");
    }
    // Garbage body: 400.
    let (status, bytes) = http_request(handle.addr(), "POST", "/simulate", b"{not json").unwrap();
    assert_eq!(status, 400);
    gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).expect("error body is strict JSON");
    // Hostile nesting on every JSON endpoint: 400, not a blown worker stack.
    let deep = "[".repeat(20_000);
    for path in ["/simulate", "/sweep", "/scenarios"] {
        let (status, _) = http_request(handle.addr(), "POST", path, deep.as_bytes()).unwrap();
        assert_eq!(status, 400, "{path}");
    }
    // Unknown endpoint / wrong method.
    let (status, _) = http_request(handle.addr(), "GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(handle.addr(), "POST", "/healthz", b"").unwrap();
    assert_eq!(status, 405);
    let (status, _) = http_request(handle.addr(), "GET", "/simulate", b"").unwrap();
    assert_eq!(status, 405);
    // After all of that, a good request still succeeds: nothing poisoned.
    let (status, v) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings_ref": "t", "mode": "summary"}"#,
    );
    assert_eq!(status, 200, "{v:?}");
    assert!(v.get("final").is_some());
    handle.shutdown();
}

#[test]
fn full_connection_queue_sheds_429_and_recovers() {
    // One worker and a one-slot queue make the shed path deterministic:
    // park the worker on a silent connection, queue a second, and the
    // third must be answered 429 at the door — never hung, never dropped.
    let (handle, _) = start(30, |c| {
        c.workers = 1;
        c.conn_queue = 1;
    });
    let addr = handle.addr();
    let holder = TcpStream::connect(addr).unwrap(); // worker parks here
    std::thread::sleep(Duration::from_millis(150));
    let queued = TcpStream::connect(addr).unwrap(); // fills the queue
    std::thread::sleep(Duration::from_millis(150));
    let mut shed = TcpStream::connect(addr).unwrap(); // must be shed
    let (status, body) = read_response(&mut BufReader::new(&mut shed)).unwrap();
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    // Release the worker; the queued connection must then be served.
    drop(holder);
    let mut queued_w = queued.try_clone().unwrap();
    write_request(&mut queued_w, "GET", "/healthz", b"", true).unwrap();
    let (status, _) = read_response(&mut BufReader::new(queued)).unwrap();
    assert_eq!(status, 200);
    // The shed shows up in the metrics.
    let m = gmr_json::parse(&handle.metrics_json()).unwrap();
    let shed_total = m.get("serve.shed_total").and_then(Value::as_u64).unwrap();
    assert!(shed_total >= 1, "shed counter: {shed_total}");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_finishes_in_flight_work_then_refuses() {
    let (handle, _) = start(400, |_| {});
    let addr = handle.addr();
    let worker = std::thread::spawn(move || {
        http_request(
            addr,
            "POST",
            "/simulate",
            br#"{"model": "table5-manual", "forcings_ref": "t"}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown(); // joins acceptor, workers, batcher
    let (status, _) = worker
        .join()
        .unwrap()
        .expect("in-flight request must be answered");
    assert_eq!(status, 200, "drain must not abort in-flight work");
    // After the drain the port is closed.
    assert!(http_request(addr, "GET", "/healthz", b"").is_err());
}

#[test]
fn introspection_endpoints_are_strict_json() {
    let (handle, _) = start(30, |_| {});
    let (status, body) = http_request(handle.addr(), "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    let v = gmr_json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    let (status, body) = http_request(handle.addr(), "GET", "/models", b"").unwrap();
    assert_eq!(status, 200);
    let v = gmr_json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let names: Vec<&str> = v
        .get("models")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, ["table5-manual"]);
    let _ = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings_ref": "t"}"#,
    );
    let (status, body) = http_request(handle.addr(), "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let v = gmr_json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let served = v
        .get("serve.requests_total")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(served >= 3, "requests_total: {served}");
    handle.shutdown();
}

/// Satellite (b): a *searched* champion — not just the built-in expert
/// model — survives export → reload → re-lint → recompile with its
/// trajectories bit-identical to in-process evaluation, both at the
/// registry level and through the full HTTP path.
#[test]
fn champion_export_round_trip_is_bit_identical() {
    let dataset = generate(&SyntheticConfig {
        start_year: 1996,
        end_year: 1998,
        train_end_year: 1997,
        ..SyntheticConfig::default()
    });
    let gmr = Gmr::new(&dataset);
    let gp = GpConfig {
        pop_size: 10,
        max_gen: 2,
        local_search_steps: 1,
        threads: 1,
        seed: 17,
        ..GpConfig::default()
    };
    let result = gmr.run_with_lint(&gp, false);
    let artifact = ModelArtifact::from_gmr("champion", &result, gp.seed);
    assert_eq!(artifact.provenance.source, "search");
    assert_eq!(artifact.provenance.fitness, result.report.best.fitness);

    // Disk round trip.
    let dir = std::env::temp_dir().join(format!("gmr-serve-champ-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("champion.json");
    artifact.save(&path).unwrap();
    let reloaded = ModelArtifact::load(&path).unwrap();
    assert_eq!(reloaded, artifact, "artifact must round-trip exactly");

    // Registry admission (re-parse + lint + recompile) of the reloaded
    // artifact, vs compiling the champion equations in-process.
    let mut registry = ModelRegistry::new();
    registry.insert(reloaded).unwrap();
    let served = registry.touch("champion").unwrap();
    let inproc =
        CompiledSystem::compile_checked(&result.equations, NUM_VARS, 2, Tier::Threaded).unwrap();
    let want = gmr.train.simulate_compiled(&inproc);
    let got = gmr.train.simulate_compiled(&served.system);
    assert_eq!(
        got, want,
        "reloaded champion must reproduce training trajectories bitwise"
    );

    // And through the server: inline forcings (the training split's rows,
    // round-tripped through JSON) with the problem's own init must come
    // back bit-identical to simulate_compiled.
    let mut tables = Tables::new();
    tables.insert("train", HostedTable::Single(gmr.train.forcings.clone()));
    let handle = Server::new(ServerConfig::default(), registry, tables)
        .start()
        .unwrap();
    let opts = gmr.train.opts;
    let mut body = r#"{"model": "champion", "forcings_ref": "train", "init": ["#.to_string();
    push_f64(&mut body, opts.init.0);
    body.push_str(", ");
    push_f64(&mut body, opts.init.1);
    body.push_str("], \"dt\": ");
    push_f64(&mut body, opts.dt);
    body.push_str(", \"state_cap\": ");
    push_f64(&mut body, opts.state_cap);
    body.push('}');
    let (status, bytes) =
        http_request(handle.addr(), "POST", "/simulate", body.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
    let v = gmr_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert_eq!(
        json_series(&v, "bphy"),
        want,
        "served champion trajectories must be bit-identical to in-process evaluation"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A small braided what-if scenario: the `POST /scenarios` body the
/// scenario tests admit.
fn scenario_spec(name: &str, seed: u64) -> String {
    format!(
        r#"{{"schema": "gmr-scenario/v1", "name": "{name}", "seed": {seed},
            "topology": {{"kind": "braided", "stations": 12}},
            "years": 1,
            "climate": [{{"kind": "monsoon_shift", "days": 12}},
                        {{"kind": "drought", "scale": 0.8}}],
            "spread": 0.3}}"#
    )
}

/// The whole scenario surface over one live server: admission (fresh,
/// idempotent, 409 on mutation), listing, solo `/simulate` of `scn:` refs
/// through the normal batcher, and a `/sweep` whose per-variant summaries
/// are bit-identical to summaries reduced from those solo responses —
/// floats having round-tripped through JSON text both ways.
#[test]
fn scenario_admission_sweep_and_solo_refs_agree() {
    let (handle, _) = start(40, |_| {});
    let addr = handle.addr();
    let spec = scenario_spec("wet-year", 21);

    // Fresh admission, then an idempotent re-admission.
    let (status, body) = http_request(addr, "POST", "/scenarios", spec.as_bytes()).unwrap();
    let v = gmr_json::parse(&String::from_utf8(body).unwrap()).unwrap();
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("fresh").and_then(Value::as_bool), Some(true));
    let (status, body) = http_request(addr, "POST", "/scenarios", spec.as_bytes()).unwrap();
    let v = gmr_json::parse(&String::from_utf8(body).unwrap()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(v.get("fresh").and_then(Value::as_bool), Some(false));

    // Same name, different spec: refused, nothing changed.
    let mutated = scenario_spec("wet-year", 22);
    let (status, _) = http_request(addr, "POST", "/scenarios", mutated.as_bytes()).unwrap();
    assert_eq!(status, 409);

    // A garbage spec is rejected by the admission gate.
    let (status, _) = http_request(addr, "POST", "/scenarios", b"{\"schema\": \"x\"}").unwrap();
    assert_eq!(status, 400);

    // Listing is strict JSON and carries the canonical spec.
    let (status, body) = http_request(addr, "GET", "/scenarios", b"").unwrap();
    assert_eq!(status, 200);
    let v = gmr_json::parse(&String::from_utf8(body).unwrap()).unwrap();
    let listed = v.get("scenarios").and_then(Value::as_arr).unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(
        listed[0].get("name").and_then(Value::as_str),
        Some("wet-year")
    );
    let days = listed[0].get("days").and_then(Value::as_u64).unwrap() as usize;
    assert!(days >= 365);

    // Sweep a handful of variants...
    let threshold = 22.5;
    let sweep_body = format!(
        r#"{{"scenario": "wet-year", "model": "table5-manual", "variants": 5,
             "reduce": {{"threshold": {threshold}}}}}"#
    );
    let (status, body) = http_request(addr, "POST", "/sweep", sweep_body.as_bytes()).unwrap();
    let v = gmr_json::parse(&String::from_utf8(body).unwrap()).unwrap();
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("days").and_then(Value::as_u64), Some(days as u64));
    let summaries = v.get("summaries").and_then(Value::as_arr).unwrap();
    assert_eq!(summaries.len(), 5);

    // ...then re-derive each variant's summary from a solo `/simulate` of
    // its `scn:` ref (served through the ordinary batcher path) and
    // demand bitwise agreement.
    let reduce = gmr_scenario::ReduceSpec { threshold };
    for (i, s) in summaries.iter().enumerate() {
        let got = gmr_scenario::SweepSummary::from_value(s).expect("well-formed summary");
        let (status, v) = post_simulate(
            &handle,
            &format!(r#"{{"model": "table5-manual", "forcings_ref": "scn:wet-year/{i}"}}"#),
        );
        assert_eq!(status, 200, "{v:?}");
        let bphy = json_series(&v, "bphy");
        let bzoo = json_series(&v, "bzoo");
        let want = gmr_scenario::reduce_series(i as u32, &reduce, &bphy, &bzoo);
        assert_eq!(got, want, "variant {i}: sweep summary != solo-reduced");
    }

    // Unknown refs and scenarios still 404.
    let (status, _) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings_ref": "scn:nope/0"}"#,
    );
    assert_eq!(status, 404);
    // A scenario variant is one trajectory's table, not a network.
    let (status, v) = post_simulate(
        &handle,
        r#"{"model": "table5-manual", "forcings_ref": "scn:wet-year/0", "network": true}"#,
    );
    assert_eq!(status, 400, "{v:?}");
    let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(msg.contains("scenario variant"), "{msg:?}");
    let sweep_404 = r#"{"scenario": "nope", "model": "table5-manual", "variants": 2}"#.as_bytes();
    let (status, _) = http_request(addr, "POST", "/sweep", sweep_404).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET", "/sweep", b"").unwrap();
    assert_eq!(status, 405);

    // Per-route latency histograms saw the new endpoints (the old
    // fall-through would have dumped them all into `(other)`), and the
    // scenario counters moved.
    let metrics = gmr_json::parse(&handle.metrics_json()).unwrap();
    for route in ["/scenarios", "/sweep", "/simulate"] {
        let count = metrics
            .get(&format!("serve.route.{route}.latency_us"))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert!(count > 0, "no per-route latency recorded for {route}");
    }
    assert_eq!(
        metrics.get("scn.admitted_total").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        metrics.get("scn.sweeps_total").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        metrics
            .get("scn.sweep_variants_total")
            .and_then(Value::as_u64),
        Some(5)
    );
    handle.shutdown();
}

/// `/simulate` in network mode, against the `"network"` table `gmr-serve
/// serve` hosts and the built-in MANUAL model (which carries the Nakdong
/// topology): every station's series and summary equal
/// in-process `simulate_network_compiled` bit for bit, the `station`
/// filter keeps one station, and each misuse is a 4xx.
#[test]
fn network_simulate_is_bit_identical_to_in_process_network_simulation() {
    const DAYS: usize = 60;
    let mut tables = Tables::synthetic(SyntheticConfig::default().seed, Some(DAYS));
    let Some(HostedTable::Network(stations)) = tables.get("network").cloned() else {
        panic!("the synthetic tables include a network table");
    };
    tables.insert("two", HostedTable::Network(stations[..2].to_vec()));
    let manual = ModelArtifact::builtin_manual();
    let net = manual.topology.clone().expect("MANUAL carries a topology");
    let flat = ModelArtifact {
        name: "flat".into(),
        topology: None,
        ..manual.clone()
    };
    let mut registry = ModelRegistry::new();
    registry.insert(manual).unwrap();
    registry.insert(flat).unwrap();
    let handle = Server::new(ServerConfig::default(), registry, tables)
        .start()
        .unwrap();
    let series: Vec<StationSeries<'_>> = stations
        .iter()
        .map(|s| StationSeries {
            vars: &s.vars,
            flow: &s.flow,
        })
        .collect();
    let opts = NetworkSimOptions::default();
    let want = simulate_network_compiled(&net, &series, 0, DAYS, &manual_system(), opts);
    // The stations a network request answers with, as `(name, station)`.
    let simulate = |extra: &str| -> Vec<(String, Value)> {
        let body = format!(
            r#"{{"model": "table5-manual", "forcings_ref": "network", "network": true{extra}}}"#
        );
        let (status, v) = post_simulate(&handle, &body);
        assert_eq!(status, 200, "{body}: {v:?}");
        assert_eq!(v.get("days").and_then(Value::as_u64), Some(DAYS as u64));
        let stations = v.get("stations").and_then(Value::as_arr).unwrap();
        let name = |st: &Value| st.get("name").and_then(Value::as_str).unwrap().to_string();
        stations.iter().map(|st| (name(st), st.clone())).collect()
    };

    let got = simulate("");
    assert_eq!(got.len(), net.len());
    for ((name, st), (sid, station)) in got.iter().zip(net.stations()) {
        assert_eq!(name, &station.name);
        assert_eq!(json_series(st, "bphy"), want.bphy[sid.0], "{name}");
        assert_eq!(json_series(st, "bzoo"), want.bzoo[sid.0], "{name}");
    }
    let got = simulate(r#", "mode": "summary""#);
    for ((name, st), (sid, _)) in got.iter().zip(net.stations()) {
        let (bphy, bzoo) = (&want.bphy[sid.0], &want.bzoo[sid.0]);
        let last = [*bphy.last().unwrap(), *bzoo.last().unwrap()];
        let mean = bphy.iter().sum::<f64>() / DAYS as f64;
        let max = bphy.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(json_series(st, "final"), last, "{name}");
        assert_eq!(st.get("mean_bphy").and_then(Value::as_f64), Some(mean));
        assert_eq!(st.get("max_bphy").and_then(Value::as_f64), Some(max));
    }
    let (sid, outlet) = net.stations().last().unwrap();
    let got = simulate(&format!(r#", "station": "{}""#, outlet.name));
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, outlet.name);
    assert_eq!(json_series(&got[0].1, "bphy"), want.bphy[sid.0]);

    for (body, want_status, names) in [
        // A model without a topology cannot run a network.
        (
            r#""model": "flat", "forcings_ref": "network", "network": true"#,
            400,
            "topology",
        ),
        // The table's station count must match the topology's.
        (
            r#""model": "table5-manual", "forcings_ref": "two", "network": true"#,
            400,
            "stations",
        ),
        (
            r#""model": "table5-manual", "forcings_ref": "network", "station": "nowhere", "network": true"#,
            404,
            "nowhere",
        ),
        // The flag must match the kind of table: a single table is not a
        // network, and a network table needs the flag.
        (
            r#""model": "table5-manual", "forcings_ref": "target", "network": true, "mode": "summary""#,
            400,
            "single table",
        ),
        (
            r#""model": "table5-manual", "forcings_ref": "network", "mode": "summary""#,
            400,
            "needs \"network\": true",
        ),
    ] {
        let body = format!("{{{body}}}");
        let (status, v) = post_simulate(&handle, &body);
        assert_eq!(status, want_status, "{body}: {v:?}");
        let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(
            msg.contains(names),
            "{body}: {msg:?} does not name {names:?}"
        );
    }
    // `station` only applies to network runs.
    let body = r#"{"model": "table5-manual", "forcings_ref": "network", "station": "S1"}"#;
    assert_eq!(post_simulate(&handle, body).0, 400);
    handle.shutdown();
}
