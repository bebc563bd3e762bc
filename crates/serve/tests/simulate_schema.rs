//! The `/simulate` request schema (DESIGN.md, "Serving subsystem") as a
//! model-based property, on the `compat/proptest` shim.
//!
//! Bodies are drawn valid and near-valid across every cross-field
//! combination (`network` × table kind, `station` × `network`, `days`
//! against the table's length, inline rows against refs, `mode`, the
//! integrator settings, one malformed field) and posted one at a time to
//! a live server and through a gateway in front of it. Each answer must
//! be what an in-process reference, written from the schema alone, says
//! the request means: the schema's 4xx with a JSON error body, or a 200
//! equal field by field, floats by bits, to a simulation computed through
//! `gmr_bio`: the tree interpreter under [`gmr_bio::euler`] for one
//! trajectory, [`simulate_network_compiled`] for a network run.

use gmr_bio::{euler, simulate_network_compiled, NetworkSimOptions, StationSeries};
use gmr_expr::{CompiledSystem, EvalContext, Expr, Tier};
use gmr_hydro::network::RiverNetwork;
use gmr_hydro::{generate, SyntheticConfig, NUM_VARS};
use gmr_json::Value;
use gmr_scenario::CompiledScenario;
use gmr_serve::batch::{HostedTable, NetStation, Tables};
use gmr_serve::server::http_request;
use gmr_serve::{
    BackendSlot, Gateway, GatewayConfig, ModelArtifact, ModelRegistry, Server, ServerConfig,
};
use proptest::prelude::*;
use proptest::test_runner::{run_property, TestRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Rows in each hosted table.
const DAYS: usize = 30;
/// Rows shipped inline.
const INLINE: usize = 6;
/// The model with the Nakdong topology; `flat` is its copy without.
const MANUAL: &str = "table5-manual";
/// The admitted scenario: one braided year whose variants differ.
const SPEC: &str = r#"{"schema": "gmr-scenario/v1", "name": "wet", "seed": 21,
    "topology": {"kind": "braided", "stations": 12}, "years": 1,
    "climate": [{"kind": "drought", "scale": 0.8}], "spread": 0.3}"#;

/// Malformed fields, each a 400 whatever the rest of the body says: the
/// keys to set to raw JSON, `-` removing the key.
const DEFECTS: [&[(&str, &str)]; 17] = [
    &[("model", "7")],
    &[("forcings", "-"), ("forcings_ref", "3")],
    &[
        ("forcings_ref", "-"),
        ("forcings", "[[1,2,3,4,null,6,7,8,9,10]]"),
    ],
    &[("forcings_ref", "-"), ("forcings", "[[1, 2]]")],
    &[("forcings_ref", "-"), ("forcings", "[]")],
    &[
        ("forcings_ref", "\"target\""),
        ("forcings", "[[1,2,3,4,5,6,7,8,9,10]]"),
    ],
    &[("forcings_ref", "-"), ("forcings", "-")],
    &[("days", "0")],
    &[("days", "2.5")],
    &[("init", "[1, null]")],
    &[("init", "[1]")],
    &[("dt", "0")],
    &[("state_cap", "-5")],
    &[("mode", "\"both\"")],
    &[("network", "\"true\"")],
    &[("station", "1")],
    &[("day", "3")],
];

/// Where a body's forcing rows come from: `"target"` (a single table),
/// `"network"` (one series per topology station), `"two"` (a network
/// table of two stations), `scn:wet/<v>`, `scn:wet/0<v>` (a variant
/// spelt non-canonically), `scn:dry/0` (no such scenario), `"nope"`, or
/// rows in the body.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Target,
    Network,
    Two,
    Scn(u32),
    Alias(u32),
    NoScn,
    NoTable,
    Inline,
}

/// `days` against the length of the table the body names.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Days {
    Absent,
    One,
    Len,
    PastLen,
}

/// One drawn `/simulate` body.
#[derive(Debug, Clone)]
struct Case {
    /// [`MANUAL`], `flat` or `nope`.
    model: &'static str,
    source: Source,
    network: Option<bool>,
    /// `Some(Some(i))` names topology station `i`, `Some(None)` none.
    station: Option<Option<usize>>,
    days: Days,
    summary: Option<bool>,
    init: Option<(f64, f64)>,
    dt: Option<f64>,
    state_cap: Option<f64>,
    /// An index into [`DEFECTS`].
    defect: Option<usize>,
}

fn pick<T: Copy>(choices: &[T], i: u32) -> T {
    choices[i as usize % choices.len()]
}

impl Case {
    /// A case from eleven uniform draws; repeated choices weight them.
    fn from_draws(d: &[u32]) -> Case {
        use {Days::*, Source::*};
        let v = d[10] % 3;
        let sources = [
            Target,
            Target,
            Network,
            Network,
            Two,
            Scn(v),
            Scn(v),
            Alias(v),
            NoScn,
            NoTable,
            Inline,
            Inline,
        ];
        let source = pick(&sources, d[1]);
        // Half the bodies give `network` the value the table's kind asks
        // for; the rest draw it blind.
        let network = match (d[2] % 2, source) {
            (0, Network | Two) => Some(true),
            (0, _) => pick(&[None, Some(false)], d[2] / 2),
            _ => pick(&[None, Some(true), Some(false)], d[2] / 2),
        };
        Case {
            model: pick(&[MANUAL, MANUAL, MANUAL, "flat", "nope"], d[0]),
            source,
            network,
            station: pick(
                &[None, None, None, Some(Some(d[3] as usize)), Some(None)],
                d[3] / 7,
            ),
            days: pick(&[Absent, Absent, One, Len, Len, PastLen], d[4]),
            summary: pick(&[None, Some(false), Some(true), Some(true)], d[5]),
            init: pick(&[None, None, Some((2.5, 0.4)), Some((40.0, 0.0))], d[6]),
            dt: pick(&[None, None, Some(0.5), Some(2.0)], d[7]),
            state_cap: pick(&[None, None, None, Some(25.0)], d[8]),
            // One body in six carries one malformed field.
            defect: d[9]
                .is_multiple_of(6)
                .then(|| (d[9] / 6) as usize % DEFECTS.len()),
        }
    }
}

/// What the reference knows: the rows behind every hosted table and
/// scenario variant, MANUAL's equations and topology.
struct World {
    target: Vec<[f64; NUM_VARS]>,
    stations: Vec<NetStation>,
    inline: Vec<[f64; NUM_VARS]>,
    scenario: CompiledScenario,
    eqs: [Expr; 2],
    sys: CompiledSystem,
    net: RiverNetwork,
}

impl World {
    fn new() -> World {
        let ds = generate(&SyntheticConfig::default());
        let cut = |s: &gmr_hydro::StationSeries| NetStation {
            vars: s.vars[..DAYS].to_vec(),
            flow: s.flow[..DAYS].to_vec(),
        };
        let eqs = gmr_bio::manual_system();
        World {
            target: ds.target_series().vars[..DAYS].to_vec(),
            stations: ds.stations.iter().map(cut).collect(),
            inline: (0..INLINE)
                .map(|t| std::array::from_fn(|j| ((t * 11 + j * 5) as f64 * 0.07).sin().abs()))
                .collect(),
            scenario: gmr_scenario::compile(&gmr_scenario::parse_spec(SPEC).unwrap()).unwrap(),
            sys: CompiledSystem::compile_checked(&eqs, NUM_VARS, 2, Tier::Threaded).unwrap(),
            eqs,
            net: RiverNetwork::nakdong(),
        }
    }

    /// The name a body's `"station"` carries.
    fn station_name(&self, station: Option<usize>) -> String {
        let names: Vec<&str> = self.net.stations().map(|(_, s)| s.name.as_str()).collect();
        station.map_or("nowhere", |i| names[i % names.len()]).into()
    }

    /// The length `days` is measured against.
    fn table_len(&self, source: Source) -> usize {
        match source {
            Source::Inline => INLINE,
            Source::Scn(_) | Source::Alias(_) => self.scenario.days,
            _ => DAYS,
        }
    }

    /// The body `c` describes, as JSON text.
    fn body(&self, c: &Case) -> String {
        let mut kv: BTreeMap<&str, String> = BTreeMap::new();
        kv.insert("model", format!("{:?}", c.model));
        let table = match c.source {
            Source::Target => "target".to_string(),
            Source::Network => "network".into(),
            Source::Two => "two".into(),
            Source::Scn(v) => format!("scn:wet/{v}"),
            Source::Alias(v) => format!("scn:wet/0{v}"),
            Source::NoScn => "scn:dry/0".into(),
            Source::NoTable => "nope".into(),
            Source::Inline => {
                let rows: Vec<String> = self.inline.iter().map(|r| format!("{r:?}")).collect();
                kv.insert("forcings", format!("[{}]", rows.join(", ")));
                String::new()
            }
        };
        if c.source != Source::Inline {
            kv.insert("forcings_ref", format!("{table:?}"));
        }
        let len = self.table_len(c.source);
        let days = match c.days {
            Days::Absent => None,
            Days::One => Some(1),
            Days::Len => Some(len),
            Days::PastLen => Some(len + 1),
        };
        let mode = c
            .summary
            .map(|s| if s { "\"summary\"" } else { "\"series\"" });
        let fields = [
            ("network", c.network.map(|n| n.to_string())),
            (
                "station",
                c.station.map(|s| format!("{:?}", self.station_name(s))),
            ),
            ("days", days.map(|d| d.to_string())),
            ("mode", mode.map(String::from)),
            ("init", c.init.map(|(p, z)| format!("[{p:?}, {z:?}]"))),
            ("dt", c.dt.map(|x| format!("{x:?}"))),
            ("state_cap", c.state_cap.map(|x| format!("{x:?}"))),
        ];
        for (k, v) in fields {
            kv.extend(v.map(|v| (k, v)));
        }
        for &(k, v) in c.defect.map_or(&[][..], |i| DEFECTS[i]) {
            match v {
                "-" => kv.remove(k),
                _ => kv.insert(k, v.to_string()),
            };
        }
        let fields: Vec<String> = kv.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// What `c` means, from the schema alone: the status of the first
    /// rule it breaks, or the `200` body.
    fn reference(&self, c: &Case) -> Result<Value, u16> {
        // Every field well-typed and in range on its own.
        if c.defect.is_some() {
            return Err(400);
        }
        // The fields against each other.
        let network = c.network == Some(true);
        if (c.station.is_some() && !network) || (network && c.source == Source::Inline) {
            return Err(400);
        }
        // The model, inline rows against `days`, then the table.
        if c.model == "nope" {
            return Err(404);
        }
        if c.source == Source::Inline && c.days == Days::PastLen {
            return Err(400);
        }
        let rows = match c.source {
            Source::Alias(_) | Source::NoScn | Source::NoTable => return Err(404),
            Source::Target => self.target.clone(),
            Source::Scn(v) => self.scenario.variant_rows(v),
            Source::Inline => self.inline.clone(),
            Source::Network | Source::Two => Vec::new(),
        };
        // The table's kind against `network`, the model's topology
        // against the table, then `days` and the station's name.
        if network != matches!(c.source, Source::Network | Source::Two) {
            return Err(400);
        }
        if network && (c.model == "flat" || c.source == Source::Two) {
            return Err(400);
        }
        let days = match c.days {
            Days::Absent | Days::Len => self.table_len(c.source),
            Days::One => 1,
            Days::PastLen => return Err(400),
        };
        if c.station == Some(None) {
            return Err(404);
        }
        let init = c.init.unwrap_or((8.0, 1.2));
        let (dt, cap) = (c.dt.unwrap_or(1.0), c.state_cap.unwrap_or(1e9));
        let summary = c.summary == Some(true);
        let mut body = obj([
            ("model", Value::Str(c.model.into())),
            ("batch", Value::Num(1.0)),
            ("days", Value::Num(days as f64)),
        ]);
        if !network {
            let (bphy, bzoo) = self.interpret(&rows[..days], init, dt, cap);
            trajectory(&mut body, summary, &bphy, &bzoo);
            return Ok(Value::Obj(body));
        }
        let series: Vec<StationSeries<'_>> = (self.stations.iter())
            .map(|s| StationSeries {
                vars: &s.vars,
                flow: &s.flow,
            })
            .collect();
        let opts = NetworkSimOptions {
            init,
            dt,
            state_cap: cap,
        };
        let res = simulate_network_compiled(&self.net, &series, 0, days, &self.sys, opts);
        let wanted = c.station.flatten().map(|s| self.station_name(Some(s)));
        let mut stations = Vec::new();
        for (sid, st) in self.net.stations() {
            if wanted.as_ref().is_none_or(|w| w == &st.name) {
                let mut o = obj([("name", Value::Str(st.name.clone()))]);
                trajectory(&mut o, summary, &res.bphy[sid.0], &res.bzoo[sid.0]);
                stations.push(Value::Obj(o));
            }
        }
        body.insert("stations".into(), Value::Arr(stations));
        Ok(Value::Obj(body))
    }

    /// One trajectory through the tree interpreter under
    /// [`gmr_bio::euler`], as `(bphy, bzoo)` pre-step states.
    fn interpret(
        &self,
        rows: &[[f64; NUM_VARS]],
        init: (f64, f64),
        dt: f64,
        cap: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let (mut bphy, mut bzoo) = (Vec::new(), Vec::new());
        let rhs = |t: usize, state: &[f64], d: &mut [f64]| {
            let ctx = EvalContext {
                vars: &rows[t],
                state,
            };
            d[0] = self.eqs[0].eval(&ctx);
            d[1] = self.eqs[1].eval(&ctx);
        };
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
}

fn obj<const N: usize>(fields: [(&str, Value); N]) -> BTreeMap<String, Value> {
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn nums(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect())
}

/// A trajectory's response fields: its series, or its summary.
fn trajectory(o: &mut BTreeMap<String, Value>, summary: bool, bphy: &[f64], bzoo: &[f64]) {
    if !summary {
        o.insert("bphy".into(), nums(bphy));
        o.insert("bzoo".into(), nums(bzoo));
        return;
    }
    let last = [*bphy.last().unwrap(), *bzoo.last().unwrap()];
    let mean = bphy.iter().sum::<f64>() / bphy.len() as f64;
    let max = bphy.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    o.insert("final".into(), nums(&last));
    o.insert("mean_bphy".into(), Value::Num(mean));
    o.insert("max_bphy".into(), Value::Num(max));
}

/// Equal field by field, numbers by bits.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Arr(x), Value::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Value::Obj(x), Value::Obj(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((i, a), (j, b))| i == j && same(a, b))
        }
        _ => a == b,
    }
}

/// Post `body` to `addr` and check the answer against `want`.
fn check(addr: SocketAddr, body: &str, want: &Result<Value, u16>) -> Result<(), String> {
    let (status, bytes) =
        http_request(addr, "POST", "/simulate", body.as_bytes()).map_err(|e| e.to_string())?;
    let full = String::from_utf8_lossy(&bytes);
    let text: String = full.chars().take(400).collect();
    let got = gmr_json::parse(&full).map_err(|e| format!("{status}, not JSON ({e}): {text}"))?;
    match want {
        Err(want) if status != *want => Err(format!("status {status}, want {want}: {text}")),
        Err(_) if got.get("error").and_then(Value::as_str).is_none() => {
            Err(format!("error body without an \"error\" string: {text}"))
        }
        Ok(_) if status != 200 => Err(format!("status {status}, want 200: {text}")),
        Ok(want) if !same(&got, want) => Err(format!("200 differs from the reference: {text}")),
        _ => Ok(()),
    }
}

#[test]
fn simulate_answers_what_the_schema_says_on_a_server_and_through_a_gateway() {
    let world = World::new();
    let mut tables = Tables::synthetic(SyntheticConfig::default().seed, Some(DAYS));
    tables.insert("two", HostedTable::Network(world.stations[..2].to_vec()));
    let manual = ModelArtifact::builtin_manual();
    let flat = ModelArtifact {
        name: "flat".into(),
        topology: None,
        ..manual.clone()
    };
    let mut registry = ModelRegistry::new();
    registry.insert(manual).unwrap();
    registry.insert(flat).unwrap();
    // Each gateway worker keeps one connection to the backend alive, and
    // each such connection holds a backend worker: the backend needs more
    // workers than the gateway to answer direct requests as well.
    let config = ServerConfig {
        workers: GatewayConfig::default().workers + 2,
        ..ServerConfig::default()
    };
    let server = Server::new(config, registry, tables).start().unwrap();
    let (status, _) = http_request(server.addr(), "POST", "/scenarios", SPEC.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let slots = Arc::new(vec![BackendSlot::default()]);
    slots[0].set_addr(server.addr());
    let gateway = Gateway::new(GatewayConfig::default(), slots)
        .start()
        .unwrap();

    let draws = prop::collection::vec(any::<u32>(), 11..12);
    // Answers by kind: a 4xx, or a 200 of each plan.
    let mut answered: BTreeMap<&str, usize> = BTreeMap::new();
    run_property(
        "simulate_schema::simulate_answers_what_the_schema_says",
        &ProptestConfig::with_cases(512),
        |rng: &mut TestRng| {
            let case = Case::from_draws(&draws.generate(rng));
            let body = world.body(&case);
            let want = world.reference(&case);
            let kind = match (&want, case.source) {
                (Err(_), _) => "4xx",
                (Ok(_), Source::Network) => "network",
                (Ok(_), Source::Inline) => "inline",
                (Ok(_), Source::Scn(_)) => "variant",
                (Ok(_), _) => "hosted table",
            };
            *answered.entry(kind).or_default() += 1;
            let outcome = [("server", server.addr()), ("gateway", gateway.addr())]
                .into_iter()
                .try_for_each(|(name, addr)| {
                    check(addr, &body, &want)
                        .map_err(|e| TestCaseError::Fail(format!("{name}: {e}")))
                });
            (format!("  case = {case:?}\n  body = {body}\n"), outcome)
        },
    );
    // The draw reaches every kind of answer often.
    assert!(
        answered.len() == 5 && answered.values().all(|&n| n >= 10),
        "answers by kind: {answered:?}"
    );
    gateway.shutdown();
    server.shutdown();
}
