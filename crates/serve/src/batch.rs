//! Simulation execution and request batching.
//!
//! `resolve` decides once what a `/simulate` means: on the worker that
//! parsed the body, it turns it into a [`Plan`] against the registry, the
//! hosted tables, the scenario store and the model's topology, or into a
//! 4xx before the job takes a queue slot. The batcher reads only the plan.
//!
//! All `/simulate` work funnels through one bounded queue into a single
//! batcher thread. The batcher is self-clocking: each flush takes the job
//! that woke it plus whatever queued while the previous flush ran, so
//! batch width follows load and no job waits for company (a 2 ms linger
//! did not pay; DESIGN.md, "Serving subsystem"). It groups table plans of
//! the *same model over the same forcing table*; each group runs as one
//! lock-step register-VM sweep (a shared-table [`gmr_expr::LaneSession`]):
//! the state-independent prefix is computed once per forcing row for the
//! whole group, and the sequential core dispatches each instruction once
//! for up to [`LANES`] trajectories. That work-sharing, not threads, is
//! where batched throughput comes from. Batching never changes answers:
//! per-lane arithmetic is the scalar protected-op sequence a solo session
//! runs, and every run integrates through [`gmr_bio::euler`].
//!
//! A flush touches the registry's hot tier once per group or solo job
//! ([`ModelRegistry::touch`]), so LRU order tracks execution order. A
//! hosted table's [`PrefixTable`] is cached on the hot record; a `scn:`
//! variant's rows and prefix are built once per group and not kept.

use crate::registry::{ModelRegistry, ServableModel};
use gmr_bio::{euler, simulate_network_compiled, NetworkSimOptions, StationSeries};
use gmr_expr::{CompiledSystem, LaneForcing, PrefixTable, LANES};
use gmr_hydro::{generate, SyntheticConfig, NUM_VARS};
use gmr_json::Value;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Where a request's forcing rows come from.
#[derive(Debug, Clone, PartialEq)]
pub enum ForcingSource {
    /// Rows shipped in the request body.
    Inline(Vec<[f64; NUM_VARS]>),
    /// A server-hosted table by name (shareable across a batch).
    Ref(String),
}

/// How much of the trajectory the response carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full `bphy`/`bzoo` day series.
    Series,
    /// Final state plus mean/max phytoplankton — constant-size response.
    Summary,
}

/// A parsed `/simulate` request body: each field well-typed and in range
/// on its own. `resolve` checks the fields against each other.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Model name in the registry.
    pub model: String,
    /// Forcing rows.
    pub source: ForcingSource,
    /// Days to simulate (`None` = the whole table).
    pub days: Option<usize>,
    /// Initial `(B_Phy, B_Zoo)`.
    pub init: (f64, f64),
    /// Euler step.
    pub dt: f64,
    /// State cap.
    pub state_cap: f64,
    /// Response mode.
    pub mode: Mode,
    /// Run the full station network (requires a network model and a
    /// network table ref).
    pub network: bool,
    /// For network runs: respond with this station's series only.
    pub station: Option<String>,
}

/// Refuse `v` (named `what` in the message) if it is not an object or if
/// it names a key outside `known`: a misspelt key must not quietly fall
/// back to its default.
pub(crate) fn check_keys(v: &Value, what: &str, known: &[&str]) -> Result<(), String> {
    let Value::Obj(m) = v else {
        return Err(format!("{what} must be an object"));
    };
    match m.keys().find(|k| !known.contains(&k.as_str())) {
        Some(k) => Err(format!("unknown key {k:?} in {what}")),
        None => Ok(()),
    }
}

/// The integration settings `/simulate` and `/sweep` share, as `(init,
/// dt, state_cap)`: `init` is a finite `[bphy, bzoo]` (default
/// `[8, 1.2]`), and `dt` and `state_cap` are positive and finite
/// (defaults 1 and 1e9).
pub(crate) fn parse_integration(v: &Value) -> Result<((f64, f64), f64, f64), String> {
    let init = match v.get("init").map(|p| p.as_arr().unwrap_or(&[])) {
        None => (8.0, 1.2),
        Some([a, b]) => match (a.as_f64(), b.as_f64()) {
            (Some(a), Some(b)) if a.is_finite() && b.is_finite() => (a, b),
            _ => return Err("\"init\" values must be finite numbers".into()),
        },
        Some(_) => return Err("\"init\" must be [bphy, bzoo]".into()),
    };
    let positive = |key: &str, default: f64| match v.get(key).map(Value::as_f64) {
        None => Ok(default),
        Some(Some(x)) if x.is_finite() && x > 0.0 => Ok(x),
        Some(_) => Err(format!("{key:?} must be a positive finite number")),
    };
    Ok((init, positive("dt", 1.0)?, positive("state_cap", 1e9)?))
}

/// Parse a `/simulate` body, field by field. Error strings are safe for a
/// `400` response. Non-finite inline forcings are rejected *here*, before
/// the job can reach the simulator — a NaN row must produce a 4xx, never
/// a poisoned simulation. Unknown keys and wrong-typed fields are refused
/// too: a misspelt `"days"` must not simulate the whole table.
pub fn parse_sim_request(v: &Value) -> Result<SimRequest, String> {
    check_keys(
        v,
        "body",
        &[
            "model",
            "forcings",
            "forcings_ref",
            "days",
            "init",
            "dt",
            "state_cap",
            "mode",
            "network",
            "station",
        ],
    )?;
    let model = v
        .get("model")
        .and_then(Value::as_str)
        .ok_or("missing \"model\"")?
        .to_string();
    let source = match (v.get("forcings"), v.get("forcings_ref")) {
        (Some(_), Some(_)) => return Err("give \"forcings\" or \"forcings_ref\", not both".into()),
        (None, None) => return Err("missing \"forcings\" or \"forcings_ref\"".into()),
        (None, Some(r)) => ForcingSource::Ref(
            r.as_str()
                .ok_or("\"forcings_ref\" must be a string")?
                .to_string(),
        ),
        (Some(rows), None) => {
            let rows = rows.as_arr().ok_or("\"forcings\" must be an array")?;
            if rows.is_empty() {
                return Err("\"forcings\" is empty".into());
            }
            let mut table = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                let row = row
                    .as_arr()
                    .ok_or_else(|| format!("forcing row {i} is not an array"))?;
                if row.len() != NUM_VARS {
                    return Err(format!(
                        "forcing row {i} has {} values, expected {NUM_VARS}",
                        row.len()
                    ));
                }
                let mut out = [0.0; NUM_VARS];
                for (j, cell) in row.iter().enumerate() {
                    // `as_f64` is None for JSON null — which is also how a
                    // NaN round-trips through strict JSON. Reject both.
                    let x = cell
                        .as_f64()
                        .ok_or_else(|| format!("forcing row {i} col {j} is not a number"))?;
                    if !x.is_finite() {
                        return Err(format!("forcing row {i} col {j} is not finite"));
                    }
                    out[j] = x;
                }
                table.push(out);
            }
            ForcingSource::Inline(table)
        }
    };
    let days = match v.get("days").map(Value::as_u64) {
        None => None,
        Some(Some(d)) if d >= 1 => Some(d as usize),
        Some(_) => return Err("\"days\" must be a positive integer".into()),
    };
    let (init, dt, state_cap) = parse_integration(v)?;
    let mode = match v.get("mode").map(Value::as_str) {
        None | Some(Some("series")) => Mode::Series,
        Some(Some("summary")) => Mode::Summary,
        Some(_) => return Err("\"mode\" must be \"series\" or \"summary\"".into()),
    };
    let network = match v.get("network") {
        None => false,
        Some(b) => b.as_bool().ok_or("\"network\" must be true or false")?,
    };
    let station = match v.get("station").map(Value::as_str) {
        None => None,
        Some(Some(s)) => Some(s.to_string()),
        Some(None) => return Err("\"station\" must be a string".into()),
    };
    Ok(SimRequest {
        model,
        source,
        days,
        init,
        dt,
        state_cap,
        mode,
        network,
        station,
    })
}

/// What one `/simulate` runs, decided once by `resolve`.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// One trajectory over the first `days` rows of a hosted single table
    /// or a `scn:` variant. Table plans of one model, table, `days` and
    /// integrator constants share a sweep.
    Table {
        /// The hosted table's name, or the variant's `scn:` ref.
        name: String,
        /// Rows to simulate, at most the table's.
        days: usize,
    },
    /// One trajectory over the rows shipped in the body, cut to `days`.
    Inline(Vec<[f64; NUM_VARS]>),
    /// The model's whole topology over the first `days` rows of a hosted
    /// network table with one series per topology station.
    Network {
        /// The hosted network table's name.
        name: String,
        /// Rows to simulate, at most the table's.
        days: usize,
        /// Answer with this topology station's series only.
        station: Option<String>,
    },
}

/// Why every lookup the batcher makes for a resolved plan succeeds.
const RESOLVED: &str = "after start no model, hosted table or admitted scenario is ever removed";

/// Resolve a parsed `/simulate` into its model and [`Plan`]: the one place
/// the request's fields are checked against each other, the registry, the
/// hosted tables, the scenario store and the model's topology. Errors are
/// `(http_status, message)`, and each message names the field or the
/// mismatch.
pub(crate) fn resolve(
    req: SimRequest,
    registry: &ModelRegistry,
    tables: &Tables,
) -> Result<(Arc<ServableModel>, Plan), (u16, String)> {
    let bad = |msg: String| Err((400, msg));
    if req.station.is_some() && !req.network {
        return bad("\"station\" only applies to network runs".into());
    }
    if req.network && matches!(req.source, ForcingSource::Inline(_)) {
        return bad("network runs need \"forcings_ref\" (a hosted network table)".into());
    }
    let Some(model) = registry.get(&req.model) else {
        return Err((404, format!("no model {:?}", req.model)));
    };
    // `days` defaults to, and may not exceed, the table's rows.
    let window = |rows: usize| match req.days {
        Some(d) if d > rows => Err((400, format!("\"days\" {d} > {rows} table rows"))),
        d => Ok(d.unwrap_or(rows)),
    };
    let name = match req.source {
        ForcingSource::Inline(mut rows) => {
            rows.truncate(window(rows.len())?);
            return Ok((model, Plan::Inline(rows)));
        }
        ForcingSource::Ref(name) => name,
    };
    let not_network = |kind: &str| {
        let msg = format!("\"network\": true needs a network table; {name:?} is {kind}");
        bad(msg)
    };
    let plan = match (tables.get(&name), req.network) {
        (Some(HostedTable::Single(rows)), false) => Plan::Table {
            days: window(rows.len())?,
            name,
        },
        (Some(HostedTable::Single(_)), true) => return not_network("a single table"),
        (Some(HostedTable::Network(_)), false) => {
            let msg = format!("{name:?} is a network table: it needs \"network\": true");
            return bad(msg);
        }
        (Some(HostedTable::Network(stations)), true) => {
            let Some(net) = &model.artifact.topology else {
                return bad(format!("model {:?} has no topology", req.model));
            };
            if stations.len() != net.len() {
                let (s, n) = (stations.len(), net.len());
                let msg = format!("table {name:?} has {s} stations, model topology has {n}");
                return bad(msg);
            }
            let rows = stations.iter().map(|s| s.vars.len().min(s.flow.len()));
            let days = window(rows.min().unwrap_or(0))?;
            if let Some(s) = req.station.as_ref().filter(|s| net.by_name(s).is_none()) {
                return Err((404, format!("no station {s:?} in topology")));
            }
            Plan::Network {
                name,
                days,
                station: req.station,
            }
        }
        (None, network) => match tables.scenarios.as_ref().and_then(|s| s.ref_len(&name)) {
            None => return Err((404, format!("no hosted table {name:?}"))),
            Some(_) if network => return not_network("a scenario variant"),
            Some(rows) => Plan::Table {
                days: window(rows)?,
                name,
            },
        },
    };
    Ok((model, plan))
}

/// One station's hosted series (network tables).
#[derive(Debug, Clone)]
pub struct NetStation {
    /// Forcing rows by absolute day.
    pub vars: Vec<[f64; NUM_VARS]>,
    /// Flow by absolute day.
    pub flow: Vec<f64>,
}

/// A server-hosted forcing table.
#[derive(Debug, Clone)]
pub enum HostedTable {
    /// One station's forcing rows — single-trajectory simulations.
    Single(Vec<[f64; NUM_VARS]>),
    /// Per-station series aligned with a network model's topology order.
    Network(Vec<NetStation>),
}

/// Named hosted tables, fixed at server start — plus, optionally, the
/// scenario store, whose `scn:<name>/<variant>` virtual tables resolve
/// anywhere a `forcings_ref` does. Scenario admission is append-only and
/// name-immutable (see [`crate::scenario::ScenarioStore::admit`]), so a
/// resolved ref always means the same rows — the invariant the batcher's
/// plans and the gateway's by-ref routing both lean on.
#[derive(Debug, Default)]
pub struct Tables {
    map: BTreeMap<String, HostedTable>,
    scenarios: Option<Arc<crate::scenario::ScenarioStore>>,
}

impl Tables {
    /// Empty table set.
    pub fn new() -> Tables {
        Tables::default()
    }

    /// Host a table under `name` (last insert wins).
    pub fn insert(&mut self, name: impl Into<String>, table: HostedTable) {
        self.map.insert(name.into(), table);
    }

    /// The table under `name`.
    pub fn get(&self, name: &str) -> Option<&HostedTable> {
        self.map.get(name)
    }

    /// Attach the scenario store that backs `scn:` forcing refs.
    pub fn attach_scenarios(&mut self, store: Arc<crate::scenario::ScenarioStore>) {
        self.scenarios = Some(store);
    }

    /// The attached scenario store, if any.
    pub fn scenarios(&self) -> Option<&Arc<crate::scenario::ScenarioStore>> {
        self.scenarios.as_ref()
    }

    /// The rows of hosted single table `name`.
    fn single(&self, name: &str) -> Option<&[[f64; NUM_VARS]]> {
        match self.map.get(name)? {
            HostedTable::Single(rows) => Some(rows),
            HostedTable::Network(_) => None,
        }
    }

    /// The stations of hosted network table `name`.
    fn network(&self, name: &str) -> Option<&[NetStation]> {
        match self.map.get(name)? {
            HostedTable::Network(stations) => Some(stations),
            HostedTable::Single(_) => None,
        }
    }

    /// The tables `gmr-serve serve` hosts, from the synthetic Nakdong
    /// dataset for `seed` cut to its first `days` days (all of them when
    /// `None`): `"target"`, the target station's forcing rows, and
    /// `"network"`, every station's rows and flow in topology order.
    pub fn synthetic(seed: u64, days: Option<usize>) -> Tables {
        let ds = generate(&SyntheticConfig {
            seed,
            ..SyntheticConfig::default()
        });
        let cut = days.map_or(ds.days, |d| d.min(ds.days)).max(1);
        let mut tables = Tables::new();
        tables.insert(
            "target",
            HostedTable::Single(ds.target_series().vars[..cut].to_vec()),
        );
        let stations = ds.stations.iter().map(|s| NetStation {
            vars: s.vars[..cut].to_vec(),
            flow: s.flow[..cut].to_vec(),
        });
        tables.insert("network", HostedTable::Network(stations.collect()));
        tables
    }
}

/// A finished simulation.
#[derive(Debug, Clone)]
pub enum SimOutput {
    /// Single-trajectory run.
    Single {
        /// Pre-step phytoplankton per day (the `simulate_compiled`
        /// convention).
        bphy: Vec<f64>,
        /// Pre-step zooplankton per day.
        bzoo: Vec<f64>,
    },
    /// Network run: series per station, topology order.
    Network {
        /// Station names, index-aligned with the series.
        stations: Vec<String>,
        /// Post-step phytoplankton per station per day.
        bphy: Vec<Vec<f64>>,
        /// Post-step zooplankton per station per day.
        bzoo: Vec<Vec<f64>>,
    },
}

/// What the batcher sends back for one job.
#[derive(Debug)]
pub struct SimOutcome {
    /// The simulation.
    pub output: SimOutput,
    /// Jobs coalesced into the sweep that served this one (1 = solo).
    pub batch: usize,
    /// Microseconds the job waited between enqueue and execution.
    pub queue_us: u64,
    /// Microseconds of simulation (the job's sweep or solo run).
    pub sim_us: u64,
}

/// One enqueued `/simulate` job: its resolved plan and the
/// integrator settings it runs under.
pub struct SimJob {
    /// The admitted model (registry `Arc`).
    pub model: Arc<ServableModel>,
    /// What to run.
    pub plan: Plan,
    /// Initial `(B_Phy, B_Zoo)`.
    pub init: (f64, f64),
    /// Euler step.
    pub dt: f64,
    /// State cap.
    pub state_cap: f64,
    /// The request's trace context; the batcher stamps each job's sweep
    /// span with `ctx.trace` so `gmr-trace stitch` can fan coalesced
    /// batch members into their shared sweep.
    pub ctx: crate::trace::TraceCtx,
    /// When the worker enqueued the job (queue-wait attribution).
    pub enqueued: Instant,
    /// Where the outcome goes (the worker blocks on the paired receiver).
    pub reply: Sender<SimOutcome>,
}

/// Upper bound on jobs drained per flush (grouping still caps each sweep
/// at [`LANES`] trajectories).
const MAX_BATCH: usize = 256;

/// Single-trajectory forward Euler over `rows` through [`euler`], the
/// integrator `RiverProblem` runs: day `t` records the *pre-step* state,
/// steps the compiled system in a solo session, then sanitises. This is
/// both the solo execution path and the bit-identity reference the
/// batched path is tested against.
pub fn simulate_single(
    sys: &CompiledSystem,
    rows: &[[f64; NUM_VARS]],
    init: (f64, f64),
    dt: f64,
    cap: f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut session = sys.session(rows);
    let mut bphy = Vec::with_capacity(rows.len());
    let mut bzoo = Vec::with_capacity(rows.len());
    let rhs = |t, s: &[f64], d: &mut [f64]| session.step(t, s, d);
    euler(
        &mut [[init.0, init.1]],
        0..rows.len(),
        dt,
        cap,
        rhs,
        |_, _, p, z| {
            bphy.push(p);
            bzoo.push(z);
            true
        },
    );
    (bphy, bzoo)
}

/// `k = inits.len()` trajectories over one shared forcing table in a
/// single lock-step sweep (`k <= LANES`), reading prefix values from a
/// cached [`PrefixTable`] (swept over the full hosted table; `rows` may be
/// any prefix of it). Per-trajectory results are bit-identical to
/// [`simulate_single`].
pub fn simulate_many_with_prefix(
    sys: &CompiledSystem,
    rows: &[[f64; NUM_VARS]],
    inits: &[(f64, f64)],
    dt: f64,
    cap: f64,
    prefix: &PrefixTable,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut session = sys.lane_session(LaneForcing::Shared {
        rows,
        prefix,
        lanes: inits.len(),
    });
    let mut out: Vec<(Vec<f64>, Vec<f64>)> = inits
        .iter()
        .map(|_| {
            (
                Vec::with_capacity(rows.len()),
                Vec::with_capacity(rows.len()),
            )
        })
        .collect();
    let rhs = |t, s: &[f64], d: &mut [f64]| session.step(t, s, d);
    let mut states: Vec<[f64; 2]> = inits.iter().map(|&(p, z)| [p, z]).collect();
    euler(&mut states, 0..rows.len(), dt, cap, rhs, |l, _, p, z| {
        out[l].0.push(p);
        out[l].1.push(z);
        true
    });
    out
}

/// A network plan's run: the model's topology over `stations` through
/// [`simulate_network_compiled`], answered in topology order, or for
/// `station` alone.
fn run_network(
    job: &SimJob,
    stations: &[NetStation],
    days: usize,
    station: Option<&str>,
    sys: &CompiledSystem,
) -> SimOutput {
    let net = job.model.artifact.topology.as_ref().expect(RESOLVED);
    let series: Vec<StationSeries<'_>> = stations
        .iter()
        .map(|s| StationSeries {
            vars: &s.vars,
            flow: &s.flow,
        })
        .collect();
    let opts = NetworkSimOptions {
        init: job.init,
        dt: job.dt,
        state_cap: job.state_cap,
    };
    let res = simulate_network_compiled(net, &series, 0, days, sys, opts);
    let answered = || {
        net.stations()
            .filter(|(_, st)| station.is_none_or(|want| want == st.name))
    };
    SimOutput::Network {
        stations: answered().map(|(_, st)| st.name.clone()).collect(),
        bphy: answered().map(|(sid, _)| res.bphy[sid.0].clone()).collect(),
        bzoo: answered().map(|(sid, _)| res.bzoo[sid.0].clone()).collect(),
    }
}

/// Run one job that shares no work, through `run`, and answer it as a
/// batch of one.
fn run_solo(
    job: &SimJob,
    registry: &ModelRegistry,
    run: impl FnOnce(&CompiledSystem) -> SimOutput,
) {
    let queue_us = job.enqueued.elapsed().as_micros() as u64;
    let start_us = gmr_obsv::now_us();
    let t0 = Instant::now();
    let hot = registry.touch(&job.model.artifact.name).expect(RESOLVED);
    let output = run(&hot.system);
    let sim_us = t0.elapsed().as_micros() as u64;
    gmr_obsv::span::record_external("serve.sweep.member", start_us, sim_us, Some(job.ctx.trace));
    let _ = job.reply.send(SimOutcome {
        output,
        batch: 1,
        queue_us,
        sim_us,
    });
}

/// Key under which table plans share one multi-trajectory sweep: same
/// model, same table, same window and integrator constants. Floats key by
/// bit pattern.
type GroupKey = (String, String, usize, u64, u64);

/// Flush one drained batch: run inline and network plans solo, group the
/// table plans, and sweep each group. Every job gets exactly one reply.
/// Compiled systems are resolved through the registry's hot tier here —
/// one touch per group or solo job.
fn flush(jobs: Vec<SimJob>, tables: &Tables, registry: &ModelRegistry) {
    let _sp = gmr_obsv::span!("serve.flush", jobs.len() as u64);
    let mut groups: BTreeMap<GroupKey, Vec<SimJob>> = BTreeMap::new();
    for job in jobs {
        match &job.plan {
            Plan::Table { name, days } => {
                let (dt, cap) = (job.dt.to_bits(), job.state_cap.to_bits());
                let key = (
                    job.model.artifact.name.clone(),
                    name.clone(),
                    *days,
                    dt,
                    cap,
                );
                groups.entry(key).or_default().push(job);
            }
            Plan::Inline(rows) => run_solo(&job, registry, |sys| {
                let (bphy, bzoo) = simulate_single(sys, rows, job.init, job.dt, job.state_cap);
                SimOutput::Single { bphy, bzoo }
            }),
            Plan::Network {
                name,
                days,
                station,
            } => run_solo(&job, registry, |sys| {
                let stations = tables.network(name).expect(RESOLVED);
                run_network(&job, stations, *days, station.as_deref(), sys)
            }),
        }
    }
    for ((model, name, days, dt, cap), group) in groups {
        let n = group.len();
        let hot = registry.touch(&model).expect(RESOLVED);
        // A hosted table's prefix is cached on the hot model and covers the
        // whole table, so any horizon shares it. A `scn:` variant's rows
        // are materialized and swept once per group and never cached: a
        // client can name any number of variants.
        let scn_rows;
        let (rows, prefix) = match tables.single(&name) {
            Some(rows) => (&rows[..days], hot.prefix_for(&name, rows)),
            None => {
                let scenarios = tables.scenarios.as_ref().expect(RESOLVED);
                scn_rows = scenarios.resolve_ref(&name).expect(RESOLVED);
                let rows = &scn_rows[..days];
                (rows, Arc::new(hot.system.sweep_prefix(rows)))
            }
        };
        let (dt, cap) = (f64::from_bits(dt), f64::from_bits(cap));
        // Chunk the group by LANES; every chunk is one lock-step sweep.
        for chunk in group.chunks(LANES) {
            let inits: Vec<(f64, f64)> = chunk.iter().map(|j| j.init).collect();
            let waited: Vec<u64> = chunk
                .iter()
                .map(|j| j.enqueued.elapsed().as_micros() as u64)
                .collect();
            let start_us = gmr_obsv::now_us();
            let t0 = Instant::now();
            let results = simulate_many_with_prefix(&hot.system, rows, &inits, dt, cap, &prefix);
            let sim_us = t0.elapsed().as_micros() as u64;
            // One member span per job, all covering the shared sweep
            // interval and each carrying its own trace id — this is what
            // lets `gmr-trace stitch` fan coalesced requests into the
            // sweep that served them.
            for ((job, (bphy, bzoo)), queue_us) in chunk.iter().zip(results).zip(waited) {
                gmr_obsv::span::record_external(
                    "serve.sweep.member",
                    start_us,
                    sim_us,
                    Some(job.ctx.trace),
                );
                let _ = job.reply.send(SimOutcome {
                    output: SimOutput::Single { bphy, bzoo },
                    batch: n,
                    queue_us,
                    sim_us,
                });
            }
        }
    }
}

/// The batcher loop: block for one job, take whatever else queued while
/// the previous flush ran, flush. Exits when every sender is gone (server
/// drain) and the queue is empty, so no accepted job is ever dropped.
pub fn run_batcher(rx: Receiver<SimJob>, tables: Arc<Tables>, registry: Arc<ModelRegistry>) {
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        jobs.extend(rx.try_iter().take(MAX_BATCH - 1));
        flush(jobs, &tables, &registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelArtifact;
    use crate::registry::ModelRegistry;
    use gmr_bio::{RiverProblem, SimOptions};
    use std::time::Duration;

    fn rows(n: usize) -> Vec<[f64; NUM_VARS]> {
        (0..n)
            .map(|t| {
                let mut r = [0.0; NUM_VARS];
                for (j, cell) in r.iter_mut().enumerate() {
                    *cell = ((t * 7 + j * 3) as f64 * 0.13).sin().abs() * 20.0 + 0.1;
                }
                r
            })
            .collect()
    }

    fn manual_registry() -> Arc<ModelRegistry> {
        let mut reg = ModelRegistry::new();
        reg.insert(ModelArtifact::builtin_manual()).unwrap();
        Arc::new(reg)
    }

    #[test]
    fn simulate_single_matches_river_problem_bitwise() {
        let reg = manual_registry();
        let sys = reg.touch("table5-manual").unwrap().system.clone();
        let table = rows(150);
        let opts = SimOptions::default();
        let problem = RiverProblem {
            forcings: table.clone(),
            observed: vec![0.0; table.len()],
            opts,
        };
        let want = problem.simulate_compiled(&sys);
        let (bphy, _) = simulate_single(&sys, &table, opts.init, opts.dt, opts.state_cap);
        assert_eq!(bphy, want, "serve loop must mirror RiverProblem::integrate");
    }

    #[test]
    fn simulate_many_matches_single_bitwise() {
        let reg = manual_registry();
        let sys = reg.touch("table5-manual").unwrap().system.clone();
        let table = rows(90);
        let inits = [(8.0, 1.2), (2.5, 0.4), (15.0, 3.0), (0.05, 0.01)];
        let prefix = sys.sweep_prefix(&table);
        let batched = simulate_many_with_prefix(&sys, &table, &inits, 1.0, 1e9, &prefix);
        for (l, &init) in inits.iter().enumerate() {
            let solo = simulate_single(&sys, &table, init, 1.0, 1e9);
            assert_eq!(batched[l], solo, "lane {l} diverged");
        }
    }

    #[test]
    fn padded_sweep_matches_single_bitwise() {
        // Half a stripe of inits reaches the lane session's padding
        // threshold: with vector kernels live the sweep runs padded to a
        // full stripe; either way every real lane must match its solo run
        // bit-for-bit.
        let reg = manual_registry();
        let sys = reg.touch("table5-manual").unwrap().system.clone();
        let table = rows(70);
        let inits: Vec<(f64, f64)> = (0..LANES / 2)
            .map(|i| (2.0 + i as f64 * 0.9, 0.3 + i as f64 * 0.11))
            .collect();
        let prefix = sys.sweep_prefix(&table);
        let batched = simulate_many_with_prefix(&sys, &table, &inits, 1.0, 1e9, &prefix);
        for (l, &init) in inits.iter().enumerate() {
            let solo = simulate_single(&sys, &table, init, 1.0, 1e9);
            assert_eq!(batched[l], solo, "lane {l} diverged");
        }
    }

    #[test]
    fn cached_prefix_sweep_matches_bitwise() {
        // The serving shape: prefix materialized over the full hosted
        // table, requests simulating a shorter horizon. Must be
        // bit-identical to a sweep over the sliced table alone.
        let reg = manual_registry();
        let hot = reg.touch("table5-manual").unwrap();
        let table = rows(100);
        let prefix = hot.prefix_for("t", &table);
        let inits = [(8.0, 1.2), (2.5, 0.4), (15.0, 3.0)];
        for days in [1, 33, 70, 100] {
            let head = &table[..days];
            let shared = simulate_many_with_prefix(&hot.system, head, &inits, 1.0, 1e9, &prefix);
            let sliced = hot.system.sweep_prefix(head);
            let on_demand = simulate_many_with_prefix(&hot.system, head, &inits, 1.0, 1e9, &sliced);
            assert_eq!(shared, on_demand, "days={days}");
        }
    }

    #[test]
    fn batcher_coalesces_ref_jobs_and_answers_all() {
        let reg = manual_registry();
        let model = reg.get("table5-manual").unwrap();
        let sys = reg.touch("table5-manual").unwrap().system.clone();
        let table = rows(60);
        let mut tables = Tables::new();
        tables.insert("t", HostedTable::Single(table.clone()));
        let tables = Arc::new(tables);
        let (tx, rx) = std::sync::mpsc::sync_channel::<SimJob>(16);
        let inits = [(8.0, 1.2), (3.0, 0.5), (11.0, 2.0)];
        let mut rxs = Vec::new();
        for &init in &inits {
            let (reply, outcome_rx) = std::sync::mpsc::channel();
            tx.send(SimJob {
                model: Arc::clone(&model),
                plan: Plan::Table {
                    name: "t".into(),
                    days: table.len(),
                },
                init,
                dt: 1.0,
                state_cap: 1e9,
                ctx: crate::trace::TraceCtx::mint(),
                enqueued: Instant::now(),
                reply,
            })
            .unwrap();
            rxs.push((init, outcome_rx));
        }
        // Every job is queued, and every sender gone, before the batcher
        // starts: its first flush must take all three as one sweep, and it
        // must still answer them after the disconnect.
        drop(tx);
        let t_tables = Arc::clone(&tables);
        let t_reg = Arc::clone(&reg);
        let batcher = std::thread::spawn(move || run_batcher(rx, t_tables, t_reg));
        for (init, rx) in rxs {
            let outcome = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            let SimOutput::Single { bphy, bzoo } = outcome.output else {
                panic!("expected single output");
            };
            let (want_p, want_z) = simulate_single(&sys, &table, init, 1.0, 1e9);
            assert_eq!(bphy, want_p);
            assert_eq!(bzoo, want_z);
            assert_eq!(outcome.batch, inits.len());
        }
        batcher.join().unwrap();
    }

    #[test]
    fn parse_rejects_nan_and_malformed() {
        let ok = gmr_json::parse(
            r#"{"model": "m", "forcings": [[1,2,3,4,5,6,7,8,9,10]], "init": [1, 2]}"#,
        )
        .unwrap();
        assert!(parse_sim_request(&ok).is_ok());
        // Strict JSON has no NaN token; a null cell is the transport form
        // of a non-finite forcing and must be refused.
        let nan =
            gmr_json::parse(r#"{"model": "m", "forcings": [[1,2,3,4,null,6,7,8,9,10]]}"#).unwrap();
        assert!(parse_sim_request(&nan).is_err());
        let short = gmr_json::parse(r#"{"model": "m", "forcings": [[1,2,3]]}"#).unwrap();
        assert!(parse_sim_request(&short).unwrap_err().contains("expected"));
        let both = gmr_json::parse(
            r#"{"model": "m", "forcings": [[1,2,3,4,5,6,7,8,9,10]], "forcings_ref": "t"}"#,
        )
        .unwrap();
        assert!(parse_sim_request(&both).is_err());
        let neither = gmr_json::parse(r#"{"model": "m"}"#).unwrap();
        assert!(parse_sim_request(&neither).is_err());
    }
}
