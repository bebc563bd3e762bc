//! The in-process serving fleet both serve workloads run against: one
//! `Gateway` in front of two `Server` backends on shipped defaults, plus
//! the keep-alive client the load generators drive it with.

use gmr_hydro::NUM_VARS;
use gmr_serve::batch::{HostedTable, Tables};
use gmr_serve::server::{read_response_full, write_request_traced, Response};
use gmr_serve::{
    BackendSlot, Gateway, GatewayConfig, GatewayHandle, ModelArtifact, ModelRegistry, Ring, Server,
    ServerConfig, ServerHandle,
};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// The hosted forcing table every `/simulate` request names.
pub const TABLE: &str = "target";
/// Backends behind the gateway.
pub const BACKENDS: usize = 2;
/// Revised models hosted beside MANUAL.
const REVISED: usize = 4;

/// What the fleet hosts, generated once per run from fixed seeds so every
/// workload seed serves the same models.
pub struct Inputs {
    pub artifacts: Vec<ModelArtifact>,
}

impl Inputs {
    /// MANUAL plus [`REVISED`] revisions drawn from the river grammar,
    /// named so the ring gives each backend at least two models.
    pub fn new() -> Inputs {
        use gmr_gp::gaussian_mutation_partial;
        use rand::{rngs::StdRng, SeedableRng};
        let grammar = gmr_bio::river_grammar();
        let priors = gmr_core::river_priors();
        let ring = Ring::new(BACKENDS);
        let owner = |name: &str| ring.preference(&Ring::key(name, TABLE))[0] as usize;
        let manual = ModelArtifact::builtin_manual();
        let mut per_backend = [0usize; BACKENDS];
        per_backend[owner(&manual.name)] += 1;
        let mut artifacts = vec![manual];
        let mut rng = StdRng::seed_from_u64(0x5eed_f00d);
        let mut candidate = 0;
        while artifacts.len() < 1 + REVISED {
            candidate += 1;
            let name = format!("revised-{candidate}");
            let b = owner(&name);
            let mut tree = grammar.grammar.random_tree(&mut rng, 4, 16);
            gaussian_mutation_partial(&mut tree, &grammar.grammar, &priors, 1.0, 1.0, &mut rng);
            let need = (1 + REVISED).div_ceil(BACKENDS);
            if per_backend[b] >= need {
                continue;
            }
            let derived = tree.derived(&grammar.grammar);
            let Ok(eqs) = gmr_tag::lower::lower_system(&derived, 2) else {
                continue;
            };
            let eqs: Vec<_> = eqs.iter().map(gmr_expr::simplify).collect();
            let artifact = ModelArtifact::from_equations(
                &name,
                &eqs,
                gmr_serve::Provenance {
                    source: "search".into(),
                    ..Default::default()
                },
            );
            // Only revisions the registry admits become inputs.
            if ModelRegistry::new().insert(artifact.clone()).is_ok() {
                per_backend[b] += 1;
                artifacts.push(artifact);
            }
        }
        Inputs { artifacts }
    }

    pub fn names(&self) -> Vec<String> {
        self.artifacts.iter().map(|a| a.name.clone()).collect()
    }
}

/// Wall time of each set-up stage, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub admit_ms: f64,
    pub scn_admit_ms: f64,
    pub total_s: f64,
}

/// A running fleet.
pub struct Fleet {
    pub gateway: GatewayHandle,
    pub backends: Vec<ServerHandle>,
    /// The hosted default table (the reference answers simulate it).
    pub rows: Vec<[f64; NUM_VARS]>,
}

impl Fleet {
    /// Generate the default dataset, admit every model on every backend,
    /// start backends and gateway, admit `scenario_spec` by broadcast
    /// through the gateway, and warm each (model, table) pair and one sweep
    /// so prefix caches are filled before timing.
    pub fn start(
        inputs: &Inputs,
        scenario_spec: &str,
        warm_sweep: &str,
    ) -> Result<(Fleet, SetupTimes), String> {
        let t0 = Instant::now();
        let ds = gmr_hydro::generate(&gmr_hydro::SyntheticConfig::default());
        let rows = ds.target_series().vars.clone();
        let generate_ms = crate::stats::ms(t0.elapsed());

        let t = Instant::now();
        let mut registries = Vec::with_capacity(BACKENDS);
        for _ in 0..BACKENDS {
            let mut reg = ModelRegistry::new();
            for a in &inputs.artifacts {
                reg.insert(a.clone())
                    .map_err(|e| format!("admit {}: {e}", a.name))?;
            }
            registries.push(reg);
        }
        let admit_ms = crate::stats::ms(t.elapsed());

        let slots: Arc<Vec<BackendSlot>> =
            Arc::new((0..BACKENDS).map(|_| BackendSlot::default()).collect());
        let mut backends = Vec::with_capacity(BACKENDS);
        for (slot, reg) in slots.iter().zip(registries) {
            let mut tables = Tables::new();
            tables.insert(TABLE, HostedTable::Single(rows.clone()));
            let handle = Server::new(ServerConfig::default(), reg, tables)
                .start()
                .map_err(|e| format!("backend start: {e}"))?;
            slot.set_addr(handle.addr());
            backends.push(handle);
        }
        let gateway = Gateway::new(GatewayConfig::default(), Arc::clone(&slots))
            .start()
            .map_err(|e| format!("gateway start: {e}"))?;
        let fleet = Fleet {
            gateway,
            backends,
            rows,
        };

        let mut conn = Conn::connect(fleet.gateway.addr()).map_err(|e| format!("connect: {e}"))?;
        let t = Instant::now();
        let r = conn
            .call("POST", "/scenarios", scenario_spec.as_bytes(), None)
            .map_err(|e| format!("admit scenario: {e}"))?;
        if r.status != 200 {
            return Err(format!(
                "scenario admission: {} {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
        let scn_admit_ms = crate::stats::ms(t.elapsed());

        for name in inputs.names() {
            let body =
                format!(r#"{{"model": "{name}", "forcings_ref": "{TABLE}", "mode": "summary"}}"#);
            let r = conn
                .call("POST", "/simulate", body.as_bytes(), None)
                .map_err(|e| format!("warm {name}: {e}"))?;
            if r.status != 200 {
                return Err(format!("warm-up {name}: {}", r.status));
            }
        }
        let r = conn
            .call("POST", "/sweep", warm_sweep.as_bytes(), None)
            .map_err(|e| format!("warm sweep: {e}"))?;
        if r.status != 200 {
            return Err(format!(
                "warm-up sweep: {} {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
        Ok((
            fleet,
            SetupTimes {
                generate_ms,
                admit_ms,
                scn_admit_ms,
                total_s: t0.elapsed().as_secs_f64(),
            },
        ))
    }

    /// Sum of one numeric field of every backend's `/metrics` snapshot.
    pub fn backend_counter(&self, key: &str) -> f64 {
        self.backends
            .iter()
            .filter_map(|b| gmr_json::parse(&b.metrics_json()).ok())
            .filter_map(|v| v.get(key).and_then(gmr_json::Value::as_f64))
            .sum()
    }

    /// Drain gateway then backends; every thread they started is joined.
    pub fn shutdown(self) {
        self.gateway.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// One keep-alive connection that sends an explicit `X-Gmr-Trace` header,
/// so the gateway and backend journal entries join on the benchmark's own
/// trace id.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<&str>,
    ) -> io::Result<Response> {
        write_request_traced(&mut self.reader.get_ref(), method, path, body, false, trace)?;
        read_response_full(&mut self.reader)
    }
}

/// A deterministic non-zero trace id for operation `i` of phase `phase`.
pub fn trace_id(seed: u64, phase: u64, i: u64) -> u64 {
    crate::splitmix64(seed ^ phase.rotate_left(48) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// `X-Gmr-Trace` value for a trace id (the client's span id is the trace
/// id itself: it is the root hop).
pub fn trace_header(trace: u64) -> String {
    format!("{trace:016x}-{trace:016x}")
}
