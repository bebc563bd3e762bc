//! Simulation execution and request batching.
//!
//! All `/simulate` work funnels through one bounded queue into a single
//! batcher thread. The batcher is self-clocking: each flush takes the job
//! that woke it plus whatever queued while the previous flush ran, so
//! batch width follows load and no job ever waits for company. Waiting
//! would not pay: on an open-loop `/simulate` mix a 2 ms linger was half
//! the median request and widened the mean batch only from 1.01 to 1.08
//! (DESIGN.md, "Serving subsystem"). It groups jobs that simulate the
//! *same model over the same forcing table*; each group runs as one
//! lock-step register-VM sweep (a shared-table [`gmr_expr::LaneSession`]):
//! the state-independent prefix is computed once per forcing row and
//! shared by every request in the group, and the sequential core
//! dispatches each instruction once for up to [`LANES`] trajectories. On
//! the single-core machines this project targets, that work-sharing — not
//! thread parallelism — is where batched throughput comes from.
//!
//! Batching never changes answers: per-lane arithmetic is the same scalar
//! protected-op sequence a solo session runs (pinned by the VM's
//! bit-equality tests), and solo and batched runs alike integrate through
//! [`gmr_bio::euler`], the loop `RiverProblem` runs.
//!
//! The batcher resolves each group's compiled system through the
//! registry's hot tier at flush time ([`ModelRegistry::touch`]), so LRU
//! order tracks execution order, and reuses the hot record's cached
//! [`PrefixTable`] per forcing table. Padding a wide group to a full SIMD
//! stripe is the lane session's business, not the batcher's.

use crate::registry::{ModelRegistry, ServableModel};
use gmr_bio::{euler, simulate_network_compiled, NetworkSimOptions, StationSeries};
use gmr_expr::{CompiledSystem, LaneForcing, PrefixTable, LANES};
use gmr_hydro::NUM_VARS;
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

/// A parsed, validated `/simulate` request body.
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

/// Parse and validate a `/simulate` body. Error strings are safe for a
/// `400` response. Non-finite inline forcings are rejected *here*, before
/// the job can reach the simulator — a NaN row must produce a 4xx, never
/// a poisoned simulation.
pub fn parse_sim_request(v: &Value) -> Result<SimRequest, String> {
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
    let days = match v.get("days") {
        None => None,
        Some(d) => Some(
            d.as_u64()
                .ok_or("\"days\" must be a non-negative integer")? as usize,
        ),
    };
    if days == Some(0) {
        return Err("\"days\" must be at least 1".into());
    }
    let init = match v.get("init") {
        None => (8.0, 1.2),
        Some(p) => {
            let arr = p.as_arr().ok_or("\"init\" must be [bphy, bzoo]")?;
            if arr.len() != 2 {
                return Err("\"init\" must be [bphy, bzoo]".into());
            }
            let a = arr[0].as_f64().ok_or("\"init\" values must be numbers")?;
            let b = arr[1].as_f64().ok_or("\"init\" values must be numbers")?;
            if !a.is_finite() || !b.is_finite() {
                return Err("\"init\" values must be finite".into());
            }
            (a, b)
        }
    };
    let f64_field = |key: &str, default: f64| -> Result<f64, String> {
        match v.get(key) {
            None => Ok(default),
            Some(x) => {
                let x = x
                    .as_f64()
                    .ok_or_else(|| format!("{key:?} must be a number"))?;
                if !x.is_finite() || x <= 0.0 {
                    return Err(format!("{key:?} must be positive and finite"));
                }
                Ok(x)
            }
        }
    };
    let dt = f64_field("dt", 1.0)?;
    let state_cap = f64_field("state_cap", 1e9)?;
    let mode = match v.get("mode").and_then(Value::as_str) {
        None | Some("series") => Mode::Series,
        Some("summary") => Mode::Summary,
        Some(other) => return Err(format!("unknown mode {other:?}")),
    };
    let network = matches!(v.get("network"), Some(Value::Bool(true)));
    let station = v.get("station").and_then(Value::as_str).map(str::to_string);
    if station.is_some() && !network {
        return Err("\"station\" only applies to network runs".into());
    }
    if network && !matches!(source, ForcingSource::Ref(_)) {
        return Err("network runs need \"forcings_ref\" (a hosted network table)".into());
    }
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
/// resolved ref always means the same rows — the invariant the registry's
/// by-name prefix caches and the gateway's by-ref routing both lean on.
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

    /// Row count behind a `scn:` forcing ref, without materializing it.
    fn scenario_ref_len(&self, name: &str) -> Option<usize> {
        self.scenarios.as_ref()?.ref_len(name)
    }

    /// Materialize the rows behind a `scn:` forcing ref.
    fn scenario_rows(&self, name: &str) -> Option<Vec<[f64; NUM_VARS]>> {
        self.scenarios.as_ref()?.resolve_ref(name)
    }

    /// Hosted table names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(String::as_str).collect()
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
    /// The simulation, or `(http_status, message)`.
    pub result: Result<SimOutput, (u16, String)>,
    /// Jobs coalesced into the sweep that served this one (1 = solo).
    pub batch: usize,
    /// Microseconds the job waited between enqueue and execution.
    pub queue_us: u64,
    /// Microseconds of simulation (the job's sweep or solo run).
    pub sim_us: u64,
}

/// One enqueued `/simulate` job.
pub struct SimJob {
    /// The admitted model (registry `Arc`).
    pub model: Arc<ServableModel>,
    /// The validated request.
    pub request: SimRequest,
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
    euler(&[init], rows.len(), dt, cap, rhs, |_, _, p, z| {
        bphy.push(p);
        bzoo.push(z);
        true
    });
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
    euler(inits, rows.len(), dt, cap, rhs, |l, _, p, z| {
        out[l].0.push(p);
        out[l].1.push(z);
        true
    });
    out
}

/// Run one job that cannot share work (inline forcings or network mode).
fn run_solo(
    job: &SimJob,
    tables: &Tables,
    sys: &CompiledSystem,
) -> Result<SimOutput, (u16, String)> {
    let req = &job.request;
    match &req.source {
        ForcingSource::Inline(rows) => {
            let days = req.days.unwrap_or(rows.len());
            if days > rows.len() {
                return Err((400, format!("days {days} > {} forcing rows", rows.len())));
            }
            let (bphy, bzoo) = simulate_single(sys, &rows[..days], req.init, req.dt, req.state_cap);
            Ok(SimOutput::Single { bphy, bzoo })
        }
        ForcingSource::Ref(name) => {
            match tables.get(name) {
                Some(HostedTable::Single(rows)) => {
                    let days = req.days.unwrap_or(rows.len());
                    if days > rows.len() {
                        return Err((400, format!("days {days} > {} table rows", rows.len())));
                    }
                    let (bphy, bzoo) =
                        simulate_single(sys, &rows[..days], req.init, req.dt, req.state_cap);
                    Ok(SimOutput::Single { bphy, bzoo })
                }
                Some(HostedTable::Network(stations)) => run_network(job, stations, sys),
                // Not a hosted table: maybe a scenario-variant virtual
                // table (`scn:<name>/<variant>`), materialized on demand.
                None => {
                    let rows = tables
                        .scenario_rows(name)
                        .ok_or_else(|| (404, format!("no hosted table {name:?}")))?;
                    let days = req.days.unwrap_or(rows.len());
                    if days > rows.len() {
                        return Err((400, format!("days {days} > {} table rows", rows.len())));
                    }
                    let (bphy, bzoo) =
                        simulate_single(sys, &rows[..days], req.init, req.dt, req.state_cap);
                    Ok(SimOutput::Single { bphy, bzoo })
                }
            }
        }
    }
}

/// Run a full-network simulation job.
fn run_network(
    job: &SimJob,
    stations: &[NetStation],
    sys: &CompiledSystem,
) -> Result<SimOutput, (u16, String)> {
    let req = &job.request;
    let net = job
        .model
        .artifact
        .topology
        .as_ref()
        .ok_or_else(|| (400, format!("model {:?} has no topology", req.model)))?;
    if stations.len() != net.len() {
        return Err((
            400,
            format!(
                "table has {} stations, model topology has {}",
                stations.len(),
                net.len()
            ),
        ));
    }
    let len = stations
        .iter()
        .map(|s| s.vars.len().min(s.flow.len()))
        .min()
        .unwrap_or(0);
    let days = req.days.unwrap_or(len);
    if days > len {
        return Err((400, format!("days {days} > {len} table rows")));
    }
    if let Some(name) = &req.station {
        if net.by_name(name).is_none() {
            return Err((404, format!("no station {name:?} in topology")));
        }
    }
    let series: Vec<StationSeries<'_>> = stations
        .iter()
        .map(|s| StationSeries {
            vars: &s.vars,
            flow: &s.flow,
        })
        .collect();
    let opts = NetworkSimOptions {
        init: req.init,
        dt: req.dt,
        state_cap: req.state_cap,
    };
    let res = simulate_network_compiled(net, &series, 0, days, sys, opts);
    let mut names = Vec::new();
    let mut bphy = Vec::new();
    let mut bzoo = Vec::new();
    for (sid, st) in net.stations() {
        if let Some(want) = &req.station {
            if &st.name != want {
                continue;
            }
        }
        names.push(st.name.clone());
        bphy.push(res.bphy[sid.0].clone());
        bzoo.push(res.bzoo[sid.0].clone());
    }
    Ok(SimOutput::Network {
        stations: names,
        bphy,
        bzoo,
    })
}

/// Key under which jobs may share one multi-trajectory sweep: same model,
/// same hosted single table, same window and integrator constants. Floats
/// key by bit pattern.
type GroupKey = (String, String, usize, u64, u64);

fn group_key(job: &SimJob, tables: &Tables) -> Option<(GroupKey, usize)> {
    let req = &job.request;
    if req.network {
        return None;
    }
    let ForcingSource::Ref(name) = &req.source else {
        return None;
    };
    // Hosted single tables and scenario-variant refs both group; their
    // lengths are known without materializing anything.
    let avail = match tables.get(name) {
        Some(HostedTable::Single(rows)) => rows.len(),
        Some(HostedTable::Network(_)) => return None,
        None => tables.scenario_ref_len(name)?,
    };
    let days = req.days.unwrap_or(avail);
    if days > avail {
        return None; // fall through to solo path, which reports the 400
    }
    Some((
        (
            req.model.clone(),
            name.clone(),
            days,
            req.dt.to_bits(),
            req.state_cap.to_bits(),
        ),
        days,
    ))
}

/// Flush one drained batch: group shareable jobs, sweep each group, run
/// the rest solo. Every job gets exactly one reply. Compiled systems are
/// resolved through the registry's hot tier here — one touch per group —
/// and each group's sweep reads the hot record's cached prefix table.
fn flush(jobs: Vec<SimJob>, tables: &Tables, registry: &ModelRegistry) {
    let _sp = gmr_obsv::span!("serve.flush", jobs.len() as u64);
    let mut groups: BTreeMap<GroupKey, Vec<(SimJob, usize)>> = BTreeMap::new();
    let mut solo = Vec::new();
    for job in jobs {
        match group_key(&job, tables) {
            Some((key, days)) => groups.entry(key).or_default().push((job, days)),
            None => solo.push(job),
        }
    }
    for job in solo {
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        let start_us = gmr_obsv::now_us();
        let t0 = Instant::now();
        let result = match registry.touch(&job.request.model) {
            Some(hot) => run_solo(&job, tables, &hot.system),
            None => Err((404, format!("no model {:?}", job.request.model))),
        };
        let sim_us = t0.elapsed().as_micros() as u64;
        gmr_obsv::span::record_external(
            "serve.sweep.member",
            start_us,
            sim_us,
            Some(job.ctx.trace),
        );
        let _ = job.reply.send(SimOutcome {
            result,
            batch: 1,
            queue_us,
            sim_us,
        });
    }
    for (key, group) in groups {
        let n = group.len();
        let days = group[0].1;
        let Some(hot) = registry.touch(&key.0) else {
            for (job, _) in group {
                let result = Err((404, format!("no model {:?}", key.0)));
                let _ = job.reply.send(SimOutcome {
                    result,
                    batch: 1,
                    queue_us: job.enqueued.elapsed().as_micros() as u64,
                    sim_us: 0,
                });
            }
            continue;
        };
        // Hosted table, or a scenario-variant ref materialized once per
        // group (the whole group shares these rows).
        let scn_rows: Vec<[f64; NUM_VARS]>;
        let rows: &[[f64; NUM_VARS]] = match tables.get(&key.1) {
            Some(HostedTable::Single(rows)) => rows,
            _ => {
                // `group_key` resolved this ref and the scenario store is
                // append-only, so it still resolves here.
                scn_rows = match tables.scenario_rows(&key.1) {
                    Some(rows) => rows,
                    None => unreachable!("group_key checked the table"),
                };
                &scn_rows
            }
        };
        // The cached prefix covers the full hosted table; any request
        // horizon shares it. (Scenario refs are name-immutable, so caching
        // their prefixes by ref name is sound too.)
        let prefix = hot.prefix_for(&key.1, rows);
        let rows = &rows[..days];
        let dt = f64::from_bits(key.3);
        let cap = f64::from_bits(key.4);
        // Chunk the group by LANES; every chunk is one lock-step sweep.
        let mut it = group.into_iter();
        loop {
            let chunk: Vec<(SimJob, usize)> = it.by_ref().take(LANES).collect();
            if chunk.is_empty() {
                break;
            }
            let inits: Vec<(f64, f64)> = chunk.iter().map(|(j, _)| j.request.init).collect();
            let waited: Vec<u64> = chunk
                .iter()
                .map(|(j, _)| j.enqueued.elapsed().as_micros() as u64)
                .collect();
            let start_us = gmr_obsv::now_us();
            let t0 = Instant::now();
            let results = simulate_many_with_prefix(&hot.system, rows, &inits, dt, cap, &prefix);
            let sim_us = t0.elapsed().as_micros() as u64;
            // One member span per job, all covering the shared sweep
            // interval and each carrying its own trace id — this is what
            // lets `gmr-trace stitch` fan coalesced requests into the
            // sweep that served them.
            for (((job, _), (bphy, bzoo)), queue_us) in chunk.into_iter().zip(results).zip(waited) {
                gmr_obsv::span::record_external(
                    "serve.sweep.member",
                    start_us,
                    sim_us,
                    Some(job.ctx.trace),
                );
                let _ = job.reply.send(SimOutcome {
                    result: Ok(SimOutput::Single { bphy, bzoo }),
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
                request: SimRequest {
                    model: "table5-manual".into(),
                    source: ForcingSource::Ref("t".into()),
                    days: None,
                    init,
                    dt: 1.0,
                    state_cap: 1e9,
                    mode: Mode::Series,
                    network: false,
                    station: None,
                },
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
            let SimOutput::Single { bphy, bzoo } = outcome.result.unwrap() else {
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
