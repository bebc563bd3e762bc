//! `serve_simulate` and `serve_sweep`: the serving fleet driven through
//! the gateway over loopback HTTP.
//!
//! * `serve_simulate` — open loop. Seeded Poisson arrivals at [`RATE`]
//!   split over two keep-alive connections, one generator thread each;
//!   every request is timed from when it was due, so a stall charges the
//!   wait it imposes on the requests behind it. `/simulate` clients are
//!   independent users.
//! * `serve_sweep` — closed loop on one connection: a planner posting
//!   256-variant × 366-day `/sweep` requests and waiting for each.

use crate::check::{self, SimWant};
use crate::fleet::{trace_header, trace_id, Conn, Fleet, Inputs, SetupTimes, TABLE};
use crate::report::Metrics;
use crate::stats::{self, ms, HostSnap};
use crate::trace::{self, CLIENT_SPAN};
use crate::{Args, Outcome};
use gmr_expr::CompiledSystem;
use gmr_scenario::SweepSummary;
use gmr_serve::batch::{parse_sim_request, simulate_many_with_prefix, simulate_single};
use gmr_serve::scenario::{parse_sweep_request, render_sweep, run_sweep, SweepRequest};
use gmr_serve::ModelRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered `/simulate` rate, requests per second, across both connections:
/// well under the fleet's capacity on a 2-vCPU host, so latency reflects
/// service time and batching rather than a growing backlog.
pub const RATE: f64 = 160.0;
/// Generator connections (and threads) for `serve_simulate`.
const CONNS: usize = 2;
/// One request in this many asks for the full series; the rest are
/// summary-mode.
const SERIES_EVERY: u32 = 10;
/// Distinct initial states per run; references are precomputed per
/// (model, init) pair.
const INITS: usize = 8;
/// `/sweep` fan-out.
const SWEEP_VARIANTS: u32 = 256;
/// The sweep's model (the Table V MANUAL artifact).
const SWEEP_MODEL: &str = "table5-manual";
/// The admitted scenario's name.
const SCENARIO: &str = "bench-what-if";

/// The scenario both serve workloads admit: `bench_scenario`'s
/// 16-station braided study with climate transforms and one dam — the
/// shape `gmr-serve scenario-spec` emits. It is the same for every
/// workload seed: its generator seed shapes the topology and so the cost
/// of a sweep, which the seed must not move.
pub fn scenario_spec(name: &str) -> String {
    let skeleton = format!(
        r#"{{"schema": "{}", "name": "{name}", "seed": 42,
  "topology": {{"kind": "braided", "stations": 16}},
  "years": 1,
  "climate": [{{"kind": "monsoon_shift", "days": 10}},
              {{"kind": "heatwave", "start_day": 185, "length": 15, "amp": 3}},
              {{"kind": "drought", "scale": 0.85}}],
  "spread": 0.25}}"#,
        gmr_scenario::SCHEMA
    );
    let mut spec = gmr_scenario::parse_spec(&skeleton).expect("bench skeleton parses");
    let (net, _) = gmr_scenario::topology::build_topology(&spec);
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

/// A `/sweep` body; the initial state and exceedance threshold come from
/// the workload seed.
fn sweep_body(scenario: &str, variants: u32, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(crate::splitmix64(crate::splitmix64(seed) ^ 0x5eeb));
    let mut o = format!(
        r#"{{"scenario": "{scenario}", "model": "{SWEEP_MODEL}", "variants": {variants}, "init": ["#
    );
    gmr_json::push_f64(&mut o, rng.gen_range(0.5..20.0));
    o.push_str(", ");
    gmr_json::push_f64(&mut o, rng.gen_range(0.1..3.0));
    o.push_str(r#"], "reduce": {"threshold": "#);
    gmr_json::push_f64(&mut o, rng.gen_range(10.0..40.0));
    o.push_str("}}");
    o
}

/// One `/simulate` request of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    pub model: usize,
    pub init: usize,
    pub series: bool,
}

/// A scheduled request: its due time from the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub id: u64,
    pub due_s: f64,
    pub req: Req,
}

/// The open-loop schedule: per connection, a Poisson process at
/// `rate / conns` over `[0, seconds)`, with each request's model, initial
/// state and mode drawn from the same seeded stream. A pure function of
/// its arguments.
pub fn schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    conns: usize,
    models: usize,
) -> Vec<Vec<Arrival>> {
    (0..conns)
        .map(|c| {
            let mut rng =
                StdRng::seed_from_u64(crate::splitmix64(crate::splitmix64(seed) ^ c as u64));
            let lambda = rate / conns as f64;
            let mut t = 0.0;
            let mut out = Vec::new();
            loop {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / lambda;
                if t >= seconds {
                    break out;
                }
                let req = Req {
                    model: rng.gen_range(0..models),
                    init: rng.gen_range(0..INITS),
                    series: rng.gen_range(0..SERIES_EVERY) == 0,
                };
                out.push(Arrival {
                    id: ((c as u64) << 32) | out.len() as u64,
                    due_s: t,
                    req,
                });
            }
        })
        .collect()
}

fn initial_states(seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(crate::splitmix64(crate::splitmix64(seed) ^ 0x1417));
    (0..INITS)
        .map(|_| (rng.gen_range(0.5..20.0), rng.gen_range(0.1..3.0)))
        .collect()
}

fn simulate_body(model: &str, init: (f64, f64), series: bool) -> String {
    let mut o = format!(r#"{{"model": "{model}", "forcings_ref": "{TABLE}", "init": ["#);
    gmr_json::push_f64(&mut o, init.0);
    o.push_str(", ");
    gmr_json::push_f64(&mut o, init.1);
    o.push(']');
    if !series {
        o.push_str(r#", "mode": "summary""#);
    }
    o.push('}');
    o
}

/// The fleet plus everything the benchmark checks answers against.
struct World {
    fleet: Fleet,
    /// Set-up times of the child processes and of this one, seconds.
    setup_s: Vec<f64>,
    /// This process's set-up, by stage.
    stages: SetupTimes,
    names: Vec<String>,
    inits: Vec<(f64, f64)>,
    /// In-process admission of every hosted model (same artifacts, same
    /// deterministic pipeline as the backends) and its compiled systems,
    /// index-aligned with `names`.
    registry: ModelRegistry,
    systems: Vec<Arc<CompiledSystem>>,
    spec: String,
}

/// The workload's set-up: start the fleet, admit the scenario, warm up.
/// Returns the running fleet and its stage times (also what
/// `--setup-only` runs).
pub fn setup(seed: u64) -> Result<(Fleet, SetupTimes, Inputs), String> {
    let inputs = Inputs::new();
    let (fleet, times) = Fleet::start(
        &inputs,
        &scenario_spec(SCENARIO),
        &sweep_body(SCENARIO, 8, seed),
    )?;
    Ok((fleet, times, inputs))
}

fn world(args: &Args) -> Result<World, String> {
    let seed = args.seed;
    let mut setup_s = crate::child_setups(args)?;
    let (fleet, stages, inputs) = setup(seed)?;
    setup_s.push(stages.total_s);
    let mut registry = ModelRegistry::new();
    for a in &inputs.artifacts {
        registry
            .insert(a.clone())
            .map_err(|e| format!("reference admit: {e}"))?;
    }
    let names = inputs.names();
    let systems = names
        .iter()
        .map(|n| {
            registry
                .touch(n)
                .map(|h| Arc::clone(&h.system))
                .ok_or("reference model missing")
        })
        .collect::<Result<_, _>>()?;
    Ok(World {
        fleet,
        setup_s,
        stages,
        names,
        inits: initial_states(seed),
        registry,
        systems,
        spec: scenario_spec(SCENARIO),
    })
}

impl World {
    fn system(&self, name: &str) -> &CompiledSystem {
        let i = self
            .names
            .iter()
            .position(|n| n == name)
            .expect("hosted model");
        &self.systems[i]
    }
}

/// What one operation produced.
#[derive(Debug, Clone, Copy)]
struct Op {
    trace: u64,
    /// From due time to the last response byte, ms.
    latency_ms: f64,
    /// Send time minus due time, ms.
    late_ms: f64,
    ok: bool,
    batch: u64,
}

/// Answers of every (model, init) pair, computed in process.
struct References {
    series: Vec<Vec<(Vec<f64>, Vec<f64>)>>,
}

impl References {
    fn new(w: &World) -> References {
        let rows = &w.fleet.rows;
        References {
            series: w
                .systems
                .iter()
                .map(|sys| {
                    w.inits
                        .iter()
                        .map(|&init| simulate_single(sys, rows, init, 1.0, 1e9))
                        .collect()
                })
                .collect(),
        }
    }

    fn want(&self, r: Req) -> SimWant<'_> {
        let (p, z) = &self.series[r.model][r.init];
        if r.series {
            SimWant::Series(p, z)
        } else {
            SimWant::Final(
                *p.last().expect("non-empty table"),
                *z.last().expect("non-empty table"),
            )
        }
    }
}

/// One generator thread: walk the connection's arrivals, sleeping until
/// each is due and sending immediately when running behind.
fn drive(
    addr: SocketAddr,
    arrivals: &[Arrival],
    start: Instant,
    w: &World,
    refs: &References,
    seed: u64,
    phase: u64,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(arrivals.len());
    let mut conn = Conn::connect(addr).ok();
    for a in arrivals {
        let due = start + Duration::from_secs_f64(a.due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let body = simulate_body(&w.names[a.req.model], w.inits[a.req.init], a.req.series);
        let trace = trace_id(seed, phase, a.id);
        let header = trace_header(trace);
        let start_us = gmr_obsv::now_us();
        let sent = Instant::now();
        let resp = conn
            .as_mut()
            .map(|c| c.call("POST", "/simulate", body.as_bytes(), Some(&header)));
        let done = Instant::now();
        // A no-op until the traced half installs the journal.
        let dur = done.duration_since(sent).as_micros() as u64;
        gmr_obsv::span::record_external(CLIENT_SPAN, start_us, dur, Some(trace));
        let batch = match resp {
            Some(Ok(r)) if r.status == 200 => check::simulate_ok(&r.body, &refs.want(a.req)),
            Some(Ok(_)) => None,
            Some(Err(_)) | None => {
                conn = Conn::connect(addr).ok();
                None
            }
        };
        ops.push(Op {
            trace,
            latency_ms: ms(done.duration_since(due)),
            late_ms: ms(sent.saturating_duration_since(due)),
            ok: batch.is_some(),
            batch: batch.unwrap_or(0),
        });
    }
    ops
}

/// Run one open-loop phase over `plan`; returns the operations and the
/// phase's wall time.
fn simulate_phase(
    w: &World,
    refs: &References,
    plan: &[Vec<Arrival>],
    seed: u64,
    phase: u64,
) -> (Vec<Op>, f64) {
    let addr = w.fleet.gateway.addr();
    let start = Instant::now() + Duration::from_millis(20);
    let ops: Vec<Op> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|arrivals| s.spawn(move || drive(addr, arrivals, start, w, refs, seed, phase)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    (ops, start.elapsed().as_secs_f64())
}

/// Every answer of both phases matched the same in-process reference
/// bit-for-bit, so the traced run's answers equal the untraced run's.
fn same_answers(untraced: &[Op], traced: &[Op]) -> bool {
    untraced.len() == traced.len() && untraced.iter().chain(traced).all(|o| o.ok)
}

fn latencies(ops: &[Op]) -> Vec<f64> {
    ops.iter().map(|o| o.latency_ms).collect()
}

/// The end-to-end metrics of an untraced phase.
fn e2e(w: &World, ops: &[Op], secs: f64, host: (HostSnap, HostSnap)) -> Metrics {
    let lat = latencies(ops);
    let ok = ops.iter().filter(|o| o.ok).count().max(1) as f64;
    crate::end_to_end([
        stats::median(&w.setup_s),
        stats::peak_rss_mb(),
        stats::median(&lat),
        ok / secs,
        (host.1.cpu_s - host.0.cpu_s) * 1e3 / ok,
    ])
}

fn diag(ops: &[Op], host: (HostSnap, HostSnap), setup_s: &[f64]) -> String {
    let lat = latencies(ops);
    let late: Vec<f64> = ops.iter().map(|o| o.late_ms).collect();
    let (tail, q) = stats::tail(&lat);
    format!(
        "ops={} p50_ms={:.3} tail_ms={tail:.3} (q{q:.4}) late_p99_ms={:.3} late_max_ms={:.3} {}",
        ops.len(),
        stats::median(&lat),
        stats::quantile(&late, 0.99),
        late.iter().copied().fold(0.0, f64::max),
        stats::host_diag(host, setup_s)
    )
}

/// Means over the journal-joined operations: (client.self, gateway.self,
/// server.self, queue, sim) in ms, plus the unattributed remainder of the
/// mean latency (late time counts as the generator's) and the number of
/// operations the journal could not join.
fn attribution(ops: &[Op]) -> ([f64; 5], f64, usize) {
    let records = gmr_obsv::global().map(|j| j.snapshot()).unwrap_or_default();
    let (splits, _) = trace::join(&records);
    let mut sums = [0.0; 5];
    let mut attributed = 0.0;
    let mut joined = 0usize;
    for o in ops {
        if let Some(s) = splits.get(&o.trace) {
            for (acc, v) in
                sums.iter_mut()
                    .zip([s.client_self, s.gateway_self, s.server_self, s.queue, s.sim])
            {
                *acc += v / 1e3;
            }
            attributed += o.late_ms + s.total() / 1e3;
            joined += 1;
        }
    }
    let n = ops.len().max(1) as f64;
    let total: f64 = ops.iter().map(|o| o.latency_ms).sum();
    let means = sums.map(|x| x / joined.max(1) as f64);
    (means, (total - attributed) / n, ops.len() - joined)
}

/// Median wall time of `reps` runs of `f`, ms.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t.elapsed())
        })
        .collect();
    stats::median(&xs)
}

/// The traced half of a serve run: the untraced half's operations again,
/// with the journal installed, checked and attributed to layers.
struct Traced {
    ops: Vec<Op>,
    /// Both halves matched the in-process references everywhere.
    same: bool,
    dropped: u64,
    /// Mean client.self, gateway.self, server.self, queue, sim; ms.
    layers: [f64; 5],
    unattributed: f64,
    unjoined: usize,
}

impl Traced {
    fn run(untraced: &[Op], phase: impl FnOnce() -> Vec<Op>) -> Result<Traced, String> {
        crate::install_journal()?;
        let ops = phase();
        let (layers, unattributed, unjoined) = attribution(&ops);
        Ok(Traced {
            same: same_answers(untraced, &ops),
            dropped: crate::journal_dropped(),
            ops,
            layers,
            unattributed,
            unjoined,
        })
    }

    fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    /// Layer metrics both serve workloads report.
    fn shared_layers(&self, w: &World, untraced: &[Op]) -> Vec<(&'static str, &'static str, f64)> {
        let lat = latencies(&self.ops);
        let overhead = stats::median(&lat) - stats::median(&latencies(untraced));
        vec![
            ("hydro.generate_ms", "ms", w.stages.generate_ms),
            ("registry.admit_ms", "ms", w.stages.admit_ms),
            ("scn.admit_ms", "ms", w.stages.scn_admit_ms),
            ("client.self_ms", "ms", self.layers[0]),
            ("gateway.self_ms", "ms", self.layers[1]),
            ("server.self_ms", "ms", self.layers[2]),
            (
                "registry.hot_hits",
                "count",
                w.fleet.backend_counter("registry.hot_hits"),
            ),
            (
                "registry.hot_misses",
                "count",
                w.fleet.backend_counter("registry.hot_misses"),
            ),
            (
                "serve.shed",
                "count",
                w.fleet.backend_counter("serve.shed_total"),
            ),
            ("unattributed_ms", "ms", self.unattributed),
            (
                "unattributed.share",
                "ratio",
                self.unattributed / stats::mean(&lat),
            ),
            ("trace.overhead_ms", "ms", overhead),
            ("journal.dropped", "count", self.dropped as f64),
        ]
    }

    fn diag(&self) -> String {
        format!(
            " traced_p50_ms={:.3} unjoined={} journal_dropped={} answers_equal={}",
            stats::median(&latencies(&self.ops)),
            self.unjoined,
            self.dropped,
            self.same
        )
    }
}

pub fn run_simulate(args: &Args) -> Result<Outcome, String> {
    let w = world(args)?;
    let refs = References::new(&w);
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plan = schedule(args.seed, RATE, secs, CONNS, w.names.len());
    let h0 = HostSnap::take();
    let (ops, elapsed) = simulate_phase(&w, &refs, &plan, args.seed, 0);
    let host = (h0, HostSnap::take());
    let mut failed = ops.iter().filter(|o| !o.ok).count() as u64;
    let mut attempted = ops.len() as u64;
    let mut diag = diag(&ops, host, &w.setup_s);
    let mut correct = true;
    let m = if !args.trace {
        e2e(&w, &ops, elapsed, host)
    } else {
        let t = Traced::run(&ops, || simulate_phase(&w, &refs, &plan, args.seed, 1).0)?;
        attempted += t.ops.len() as u64;
        failed += t.failed();
        correct &= t.same && t.dropped == 0;
        diag.push_str(&t.diag());
        let late: Vec<f64> = t.ops.iter().map(|o| o.late_ms).collect();
        let batches: Vec<f64> = t
            .ops
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.batch as f64)
            .collect();

        // Replays: body parse over the request mix, and lock-step
        // simulation at widths 1 and 2 over MANUAL's cached prefix.
        let bodies: Vec<String> = plan
            .iter()
            .flatten()
            .map(|a| simulate_body(&w.names[a.req.model], w.inits[a.req.init], a.req.series))
            .collect();
        let parse_ms = timed(3, || {
            bodies
                .iter()
                .filter(|b| {
                    parse_sim_request(&gmr_json::parse(b).expect("bench body parses")).is_ok()
                })
                .count()
        });
        let hot = w.registry.touch(SWEEP_MODEL).ok_or("MANUAL missing")?;
        let prefix = hot.prefix_for(TABLE, &w.fleet.rows);
        let lockstep = |k: usize| {
            let inits = &w.inits[..k];
            timed(5, || {
                simulate_many_with_prefix(&hot.system, &w.fleet.rows, inits, 1.0, 1e9, &prefix)
            })
        };
        let mut values = t.shared_layers(&w, &ops);
        values.extend([
            ("client.late_ms", "ms", stats::quantile(&late, 0.99)),
            ("batch.wait_ms", "ms", t.layers[3]),
            ("batch.width_mean", "count", stats::mean(&batches)),
            ("vm.sim_ms", "ms", t.layers[4]),
            ("batch.lockstep_ms", "ms", lockstep(1)),
            ("batch.lockstep2_ms", "ms", lockstep(2)),
            (
                "json.parse_us",
                "us",
                parse_ms * 1e3 / bodies.len().max(1) as f64,
            ),
        ]);
        crate::layer_metrics(&values)
    };
    w.fleet.shutdown();
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: m,
        diag,
    })
}

/// The `/sweep` reference: `render_sweep` over `run_sweep` on an
/// in-process compile of the admitted spec, plus whether a few variants'
/// summaries equal `reduce_series` over their solo trajectories.
fn sweep_reference(
    w: &World,
    req: &SweepRequest,
    seed: u64,
) -> Result<(Vec<SweepSummary>, Vec<u8>, bool), String> {
    let spec = gmr_scenario::parse_spec(&w.spec).map_err(|e| format!("spec: {e}"))?;
    let scn = gmr_scenario::compile(&spec).map_err(|e| format!("compile: {e}"))?;
    let sys = w.system(SWEEP_MODEL);
    let want = run_sweep(&scn, sys, req);
    let mut rng = StdRng::seed_from_u64(crate::splitmix64(crate::splitmix64(seed) ^ 0x5eed));
    let spot = (0..3).all(|_| {
        let v = rng.gen_range(0..req.variants);
        let (p, z) = simulate_single(sys, &scn.variant_rows(v), req.init, req.dt, req.state_cap);
        check::summary_eq(
            &gmr_scenario::reduce_series(v, &req.reduce, &p, &z),
            &want[v as usize],
        )
    });
    let body = render_sweep(req, scn.days, &want);
    Ok((want, body, spot))
}

/// When a closed-loop sweep phase stops.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Count(usize),
}

/// Closed-loop sweeps on one connection until `until`.
fn sweep_phase(
    w: &World,
    body: &str,
    want: &[u8],
    seed: u64,
    phase: u64,
    until: Until,
) -> (Vec<Op>, f64) {
    let mut conn = Conn::connect(w.fleet.gateway.addr()).ok();
    let t0 = Instant::now();
    let mut ops = Vec::new();
    while match until {
        Until::Elapsed(d) => t0.elapsed() < d,
        Until::Count(n) => ops.len() < n,
    } {
        let trace = trace_id(seed, phase, ops.len() as u64);
        let header = trace_header(trace);
        let start_us = gmr_obsv::now_us();
        let sent = Instant::now();
        let resp = conn
            .as_mut()
            .map(|c| c.call("POST", "/sweep", body.as_bytes(), Some(&header)));
        let done = Instant::now();
        // A no-op until the traced half installs the journal.
        gmr_obsv::span::record_external(
            CLIENT_SPAN,
            start_us,
            done.duration_since(sent).as_micros() as u64,
            Some(trace),
        );
        let ok = match resp {
            Some(Ok(r)) => r.status == 200 && check::sweep_ok(&r.body, want),
            Some(Err(_)) | None => {
                conn = Conn::connect(w.fleet.gateway.addr()).ok();
                false
            }
        };
        ops.push(Op {
            trace,
            latency_ms: ms(done.duration_since(sent)),
            late_ms: 0.0,
            ok,
            batch: 0,
        });
    }
    (ops, t0.elapsed().as_secs_f64())
}

pub fn run_sweep_workload(args: &Args) -> Result<Outcome, String> {
    let w = world(args)?;
    let body = sweep_body(SCENARIO, SWEEP_VARIANTS, args.seed);
    let req = parse_sweep_request(&gmr_json::parse(&body).map_err(|e| e.to_string())?)?;
    let (want, want_body, spot_ok) = sweep_reference(&w, &req, args.seed)?;
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let h0 = HostSnap::take();
    let until = Until::Elapsed(Duration::from_secs_f64(secs));
    let (ops, elapsed) = sweep_phase(&w, &body, &want_body, args.seed, 0, until);
    let host = (h0, HostSnap::take());
    let mut failed = ops.iter().filter(|o| !o.ok).count() as u64;
    let mut attempted = ops.len() as u64;
    let mut diag = diag(&ops, host, &w.setup_s);
    let mut correct = spot_ok;
    let m = if !args.trace {
        e2e(&w, &ops, elapsed, host)
    } else {
        let t = Traced::run(&ops, || {
            sweep_phase(&w, &body, &want_body, args.seed, 1, Until::Count(ops.len())).0
        })?;
        attempted += t.ops.len() as u64;
        failed += t.failed();
        correct &= t.same && t.dropped == 0;
        diag.push_str(&t.diag());
        diag.push_str(&format!(" spot_ok={spot_ok}"));

        // Replays of the sweep's parts: forcing materialisation of every
        // variant, the whole `run_sweep` (ensemble lanes are the rest), and
        // the response render.
        let spec = gmr_scenario::parse_spec(&w.spec).map_err(|e| format!("spec: {e}"))?;
        let scn = gmr_scenario::compile(&spec).map_err(|e| format!("compile: {e}"))?;
        let rows_ms = timed(3, || {
            (0..req.variants)
                .map(|v| scn.variant_rows(v).len())
                .sum::<usize>()
        });
        let sweep_ms = timed(3, || run_sweep(&scn, w.system(SWEEP_MODEL), &req));
        let render_ms = timed(3, || render_sweep(&req, scn.days, &want));
        let mut values = t.shared_layers(&w, &ops);
        values.extend([
            ("scn.sweep_ms", "ms", t.layers[4]),
            ("scn.variant_rows_ms", "ms", rows_ms),
            ("vm.ensemble_ms", "ms", sweep_ms - rows_ms),
            ("scn.render_ms", "ms", render_ms),
        ]);
        crate::layer_metrics(&values)
    };
    w.fleet.shutdown();
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: m,
        diag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, 150.0, 2.0, 2, 5);
        assert_eq!(a, schedule(7, 150.0, 2.0, 2, 5));
        assert_ne!(a, schedule(8, 150.0, 2.0, 2, 5));
        assert_eq!(a.len(), 2);
        let n: usize = a.iter().map(Vec::len).sum();
        // ~300 arrivals; a Poisson count this far off would be a bug.
        assert!((200..400).contains(&n), "{n} arrivals");
        for conn in &a {
            assert!(conn.windows(2).all(|p| p[0].due_s < p[1].due_s));
            assert!(conn
                .iter()
                .all(|x| x.due_s < 2.0 && x.req.model < 5 && x.req.init < INITS));
        }
        let series = a.iter().flatten().filter(|x| x.req.series).count();
        assert!(series > 0 && series < n / 4, "{series} series of {n}");
    }

    #[test]
    fn simulate_bodies_parse_as_requests() {
        for series in [false, true] {
            let b = simulate_body("m", (1.5, 0.25), series);
            let r = parse_sim_request(&gmr_json::parse(&b).unwrap()).unwrap();
            assert_eq!(r.init, (1.5, 0.25));
            assert_eq!(r.mode == gmr_serve::batch::Mode::Series, series);
        }
    }
}
