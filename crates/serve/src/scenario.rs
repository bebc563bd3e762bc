//! Scenario hosting and ensemble sweep execution.
//!
//! Two serving primitives on top of [`gmr_scenario`]:
//!
//! * [`ScenarioStore`] — runtime-admitted compiled scenarios. `POST
//!   /scenarios` is lint-gated like model admission: the spec must
//!   strict-parse, range-check, and compile (dam stations must exist and
//!   be physical) before it is hosted; a rejected spec is a `4xx` and the
//!   store is untouched. Admission is append-only and idempotent — the
//!   same canonical spec re-admits as a no-op, a *different* spec under a
//!   taken name is refused with `409` — so a scenario name's forcing
//!   tables never change underneath the registry's per-table prefix
//!   caches or the gateway's routing.
//! * [`run_sweep`] — fans one `/sweep` request into `variants` jittered
//!   forcing variants and steps them through per-lane
//!   [`gmr_expr::LaneSession`]s ([`LANES`] variants per lock-step core
//!   dispatch), reducing each trajectory online to a [`SweepSummary`].
//!
//! The bit-identity contract extends to sweeps: variant `i`'s summary from
//! a batched sweep equals the summary reduced from a solo `/simulate` of
//! `forcings_ref: "scn:<name>/<i>"` — both integrate through
//! [`gmr_bio::euler`], and per-lane kernels compute each lane exactly as a
//! solo session would (`bench_scenario --validate` gates on it through the
//! gateway).

use crate::batch::{check_keys, parse_integration};
use gmr_bio::euler;
use gmr_expr::{CompiledSystem, LaneForcing, LANES};
use gmr_hydro::NUM_VARS;
use gmr_json::{push_escaped, Value};
use gmr_obsv::journal::Event;
use gmr_scenario::{
    compile, parse_spec, render_spec, CompiledScenario, ReduceSpec, SweepReducer, SweepSummary,
};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Prefix that names a hosted scenario variant as a forcing table:
/// `scn:<scenario>/<variant>` resolves to that variant's materialized
/// rows anywhere a `forcings_ref` is accepted.
pub const SCN_REF_PREFIX: &str = "scn:";

/// Upper bound on `/sweep` fan-out per request. Large enough for the
/// "hundreds to thousands" ensemble studies the scenario engine targets,
/// small enough that one request cannot park a worker indefinitely.
pub const MAX_VARIANTS: u32 = 8192;

/// Runtime-admitted compiled scenarios, shared by the dispatch path and
/// the batcher (which resolves `scn:` forcing refs through it).
#[derive(Debug, Default)]
pub struct ScenarioStore {
    map: RwLock<BTreeMap<String, Arc<CompiledScenario>>>,
}

impl ScenarioStore {
    /// Empty store.
    pub fn new() -> ScenarioStore {
        ScenarioStore::default()
    }

    /// Admit a scenario from its JSON spec text. Returns the compiled
    /// scenario and whether it was freshly admitted (`false` = identical
    /// spec already hosted). Errors are `(http_status, message)`.
    pub fn admit(&self, src: &str) -> Result<(Arc<CompiledScenario>, bool), (u16, String)> {
        let spec = parse_spec(src).map_err(|e| (400, format!("scenario rejected: {e}")))?;
        let canonical = render_spec(&spec);
        {
            let map = self.map.read().unwrap();
            if let Some(existing) = map.get(&spec.name) {
                return if render_spec(&existing.spec) == canonical {
                    Ok((Arc::clone(existing), false))
                } else {
                    Err((
                        409,
                        format!(
                            "scenario {:?} is already admitted with a different spec \
                             (names are immutable once admitted)",
                            spec.name
                        ),
                    ))
                };
            }
        }
        let scn = compile(&spec).map_err(|e| (400, format!("scenario rejected: {e}")))?;
        gmr_obsv::emit(Event::Note {
            name: "scn.lint",
            msg: format!(
                "scenario {:?} admitted: {} stations, {} days, {} transform(s)",
                spec.name,
                spec.stations,
                scn.days,
                spec.transforms.len()
            ),
        });
        let scn = Arc::new(scn);
        let mut map = self.map.write().unwrap();
        // Two concurrent admissions of the same spec: first insert wins,
        // both see the same compiled world (compilation is deterministic).
        let entry = map
            .entry(spec.name.clone())
            .or_insert_with(|| Arc::clone(&scn));
        Ok((Arc::clone(entry), true))
    }

    /// The compiled scenario under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<CompiledScenario>> {
        self.map.read().unwrap().get(name).cloned()
    }

    /// Number of hosted scenarios.
    pub fn len(&self) -> usize {
        self.map.read().unwrap().len()
    }

    /// Whether no scenario is hosted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row count of the table a `scn:<name>/<variant>` ref would resolve
    /// to, without materializing it.
    pub fn ref_len(&self, table: &str) -> Option<usize> {
        let (name, _) = parse_ref(table)?;
        Some(self.get(name)?.days)
    }

    /// Materialize the forcing table behind a `scn:<name>/<variant>` ref.
    pub fn resolve_ref(&self, table: &str) -> Option<Vec<[f64; NUM_VARS]>> {
        let (name, variant) = parse_ref(table)?;
        Some(self.get(name)?.variant_rows(variant))
    }

    /// The `GET /scenarios` body: every hosted scenario with its compiled
    /// shape and canonical spec.
    pub fn render_json(&self) -> String {
        let map = self.map.read().unwrap();
        let mut o = String::from("{\"scenarios\": [");
        for (i, (name, scn)) in map.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str("{\"name\": ");
            push_escaped(&mut o, name);
            o.push_str(&format!(
                ", \"stations\": {}, \"days\": {}, \"outlet\": ",
                scn.spec.stations, scn.days
            ));
            push_escaped(&mut o, &scn.outlet);
            o.push_str(", \"spec\": ");
            o.push_str(&render_spec(&scn.spec));
            o.push('}');
        }
        o.push_str("]}\n");
        o
    }
}

/// Split a `scn:<name>/<variant>` ref. `None` for anything else (a plain
/// hosted-table name, a malformed ref).
fn parse_ref(table: &str) -> Option<(&str, u32)> {
    let rest = table.strip_prefix(SCN_REF_PREFIX)?;
    let (name, var) = rest.split_once('/')?;
    var.parse().ok().map(|v| (name, v))
}

/// A parsed, validated `/sweep` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Hosted scenario name.
    pub scenario: String,
    /// Model name in the registry.
    pub model: String,
    /// Ensemble width: variants `0..variants` are swept.
    pub variants: u32,
    /// Reduction parameters.
    pub reduce: ReduceSpec,
    /// Initial `(B_Phy, B_Zoo)` — same default as `/simulate`.
    pub init: (f64, f64),
    /// Euler step.
    pub dt: f64,
    /// State cap.
    pub state_cap: f64,
}

/// Parse and validate a `/sweep` body. Error strings are safe for `400`.
/// Unknown keys are rejected — a misspelled `"variants"` must not quietly
/// sweep a 1-variant default.
pub fn parse_sweep_request(v: &Value) -> Result<SweepRequest, String> {
    check_keys(
        v,
        "body",
        &[
            "scenario",
            "model",
            "variants",
            "reduce",
            "init",
            "dt",
            "state_cap",
        ],
    )?;
    let scenario = v
        .get("scenario")
        .and_then(Value::as_str)
        .ok_or("missing \"scenario\"")?
        .to_string();
    let model = v
        .get("model")
        .and_then(Value::as_str)
        .ok_or("missing \"model\"")?
        .to_string();
    let variants = v
        .get("variants")
        .and_then(Value::as_u64)
        .ok_or("missing \"variants\" (a positive integer)")?;
    // Range-check the full value before narrowing: `as u32` would wrap
    // 2^32 + 1 to a valid 1.
    let variants = u32::try_from(variants)
        .ok()
        .filter(|n| (1..=MAX_VARIANTS).contains(n))
        .ok_or_else(|| format!("\"variants\" must be in 1..={MAX_VARIANTS}"))?;
    let reduce = match v.get("reduce") {
        None => ReduceSpec::default(),
        Some(r) => {
            check_keys(r, "\"reduce\"", &["threshold"])?;
            let threshold = match r.get("threshold").map(Value::as_f64) {
                None => ReduceSpec::default().threshold,
                Some(Some(t)) if t.is_finite() && t >= 0.0 => t,
                Some(_) => {
                    return Err("\"reduce.threshold\" must be a finite non-negative number".into())
                }
            };
            ReduceSpec { threshold }
        }
    };
    let (init, dt, state_cap) = parse_integration(v)?;
    Ok(SweepRequest {
        scenario,
        model,
        variants,
        reduce,
        init,
        dt,
        state_cap,
    })
}

/// Execute a sweep: variants `0..req.variants` in [`LANES`]-wide ensemble
/// chunks, each trajectory reduced online in day order. Per-variant
/// results are bit-identical to a solo [`crate::batch::simulate_single`]
/// over that variant's table (pinned by tests and `bench_scenario`).
///
/// The variant tables transform only the forcing columns `sys` reads
/// ([`CompiledScenario::variant_rows_for`]): no instruction loads the
/// others, so their base values never reach a summary. Within each
/// chunk the lane session reuses lane 0's prefix work wherever a
/// variant's read columns equal lane 0's (see [`LaneForcing::PerLane`]).
pub fn run_sweep(
    scn: &CompiledScenario,
    sys: &CompiledSystem,
    req: &SweepRequest,
) -> Vec<SweepSummary> {
    let mut cols = [false; NUM_VARS];
    for v in sys.vars_read() {
        // A column past the table's width has nothing to transform.
        if let Some(c) = cols.get_mut(v as usize) {
            *c = true;
        }
    }
    let mut summaries = Vec::with_capacity(req.variants as usize);
    let mut first = 0u32;
    while first < req.variants {
        let k = ((req.variants - first) as usize).min(LANES);
        let tabs: Vec<Vec<[f64; NUM_VARS]>> = (0..k)
            .map(|j| scn.variant_rows_for(first + j as u32, &cols))
            .collect();
        let refs: Vec<&[[f64; NUM_VARS]]> = tabs.iter().map(Vec::as_slice).collect();
        let mut session = sys.lane_session(LaneForcing::PerLane(&refs));
        let mut reducers: Vec<SweepReducer> = (0..k)
            .map(|j| SweepReducer::new(first + j as u32, &req.reduce))
            .collect();
        // The same integrator, pre-step recording included, that the solo
        // path runs.
        let rhs = |t, s: &[f64], d: &mut [f64]| session.step(t, s, d);
        let mut states = vec![[req.init.0, req.init.1]; k];
        euler(
            &mut states,
            0..scn.days,
            req.dt,
            req.state_cap,
            rhs,
            |l, _, p, z| {
                reducers[l].push(p, z);
                true
            },
        );
        summaries.extend(reducers.into_iter().map(SweepReducer::finish));
        first += k as u32;
    }
    summaries
}

/// Render the `/sweep` response body.
pub fn render_sweep(req: &SweepRequest, days: usize, summaries: &[SweepSummary]) -> Vec<u8> {
    let mut o = String::from("{\"scenario\": ");
    push_escaped(&mut o, &req.scenario);
    o.push_str(", \"model\": ");
    push_escaped(&mut o, &req.model);
    o.push_str(&format!(
        ", \"variants\": {}, \"days\": {days}, \"threshold\": ",
        req.variants
    ));
    gmr_json::push_f64(&mut o, req.reduce.threshold);
    o.push_str(", \"summaries\": [");
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        o.push_str(&s.to_json());
    }
    o.push_str("]}\n");
    o.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::simulate_single;
    use crate::registry::ModelRegistry;
    use crate::{ModelArtifact, Provenance};
    use gmr_expr::ast::{BinOp, Expr};
    use gmr_scenario::reduce_series;

    fn demo_spec(name: &str) -> String {
        format!(
            r#"{{"schema": "gmr-scenario/v1", "name": "{name}", "seed": 11,
                 "topology": {{"kind": "braided", "stations": 16}},
                 "years": 1,
                 "climate": [{{"kind": "heatwave", "start_day": 180, "length": 20, "amp": 3}},
                             {{"kind": "drought", "scale": 0.75}}],
                 "spread": 0.3}}"#
        )
    }

    #[test]
    fn store_admits_idempotently_and_refuses_mutation() {
        let store = ScenarioStore::new();
        let (a, fresh) = store.admit(&demo_spec("s")).unwrap();
        assert!(fresh);
        let (b, fresh) = store.admit(&demo_spec("s")).unwrap();
        assert!(!fresh, "identical spec re-admits as a no-op");
        assert!(Arc::ptr_eq(&a, &b));
        // Same name, different seed: refused, stored world unchanged.
        let err = store
            .admit(&demo_spec("s").replace("\"seed\": 11", "\"seed\": 12"))
            .unwrap_err();
        assert_eq!(err.0, 409);
        assert_eq!(store.len(), 1);
        // Garbage spec: 400.
        assert_eq!(store.admit("{}").unwrap_err().0, 400);
    }

    #[test]
    fn seeds_past_2_pow_53_admit_as_distinct_worlds() {
        // 2^53 + 1 used to round to 2^53 and re-admit as the same spec
        // (`fresh: false`). Now a bare number that large is a 400, and as
        // a string it is a different spec under a taken name: 409.
        let store = ScenarioStore::new();
        let with_seed =
            |seed: &str| demo_spec("big").replace("\"seed\": 11", &format!("\"seed\": {seed}"));
        let (scn, fresh) = store.admit(&with_seed("\"9007199254740992\"")).unwrap();
        assert!(fresh);
        assert_eq!(scn.spec.seed, 1 << 53);
        for bare in ["9007199254740992", "9007199254740993"] {
            assert_eq!(store.admit(&with_seed(bare)).unwrap_err().0, 400, "{bare}");
        }
        assert_eq!(
            store
                .admit(&with_seed("\"9007199254740993\""))
                .unwrap_err()
                .0,
            409
        );
        let (_, fresh) = store.admit(&with_seed("\"9007199254740992\"")).unwrap();
        assert!(!fresh);
    }

    #[test]
    fn scn_refs_resolve_to_variant_tables() {
        let store = ScenarioStore::new();
        store.admit(&demo_spec("w")).unwrap();
        let scn = store.get("w").unwrap();
        assert_eq!(store.ref_len("scn:w/0"), Some(scn.days));
        assert_eq!(store.resolve_ref("scn:w/0").unwrap(), scn.variant_rows(0));
        assert_eq!(store.resolve_ref("scn:w/7").unwrap(), scn.variant_rows(7));
        assert!(store.resolve_ref("scn:w").is_none(), "variant is required");
        assert!(store.resolve_ref("scn:nope/0").is_none());
        assert!(store.resolve_ref("w/0").is_none(), "prefix is required");
        assert!(store.resolve_ref("scn:w/x").is_none());
    }

    /// Sweep scenario `name` (admitted in `store`) through `sys` at an
    /// awkward width — one full chunk plus a ragged tail past half a
    /// stripe, so the tail runs padded when the SIMD kernels are live —
    /// and check every variant's summary against a solo run over that
    /// variant's whole table.
    fn assert_sweep_matches_solo(store: &ScenarioStore, name: &str, sys: &CompiledSystem) {
        let scn = store.get(name).unwrap();
        let req = SweepRequest {
            scenario: name.into(),
            model: "m".into(),
            variants: (LANES + LANES / 2 + 1) as u32,
            reduce: ReduceSpec { threshold: 20.0 },
            init: (8.0, 1.2),
            dt: 1.0,
            state_cap: 1e9,
        };
        let summaries = run_sweep(&scn, sys, &req);
        assert_eq!(summaries.len(), req.variants as usize);
        for (i, got) in summaries.iter().enumerate() {
            let rows = scn.variant_rows(i as u32);
            let (bphy, bzoo) = simulate_single(sys, &rows, req.init, req.dt, req.state_cap);
            let want = reduce_series(i as u32, &req.reduce, &bphy, &bzoo);
            assert_eq!(got, &want, "variant {i} summary diverged from solo run");
        }
        // Variants genuinely differ (the jitter does something). Peak can
        // legitimately tie across variants (e.g. a day-0 peak at the
        // shared init), so compare whole summaries.
        assert!(
            summaries.windows(2).any(|w| w[0] != w[1]),
            "all variants identical — jitter is broken"
        );
    }

    fn registered(art: ModelArtifact) -> Arc<CompiledSystem> {
        let mut reg = ModelRegistry::new();
        let name = art.name.clone();
        reg.insert(art).unwrap();
        reg.touch(&name).unwrap().system.clone()
    }

    #[test]
    fn sweep_summaries_match_solo_trajectories_bitwise() {
        let store = ScenarioStore::new();
        store.admit(&demo_spec("v")).unwrap();
        let sys = registered(ModelArtifact::builtin_manual());
        assert!(sys.vars_read().len() < NUM_VARS, "MANUAL skips columns");
        assert_sweep_matches_solo(&store, "v", &sys);
    }

    #[test]
    fn sweep_of_a_model_reading_every_column_matches_solo() {
        // MANUAL plus a small term in every forcing column, so no
        // column's transforms are skipped, over a scenario with every
        // transform kind.
        let [dbphy, dbzoo] = gmr_bio::manual_system();
        let every = (0..NUM_VARS as u8)
            .map(Expr::Var)
            .reduce(|a, b| Expr::bin(BinOp::Add, a, b))
            .unwrap();
        let dbphy = Expr::bin(
            BinOp::Add,
            dbphy,
            Expr::bin(BinOp::Mul, Expr::Num(1e-6), every),
        );
        let art =
            ModelArtifact::from_equations("reads-all", &[dbphy, dbzoo], Provenance::default());
        let sys = registered(art);
        assert_eq!(sys.vars_read(), (0..NUM_VARS as u8).collect::<Vec<_>>());
        let spec = demo_spec("all").replace(
            r#""spread": 0.3"#,
            r#""dams": [{"station": "n05", "capacity": 200000, "release": 0.6, "overflow": 0.75}],
               "spread": 0.3"#,
        );
        let spec = spec.replace(
            r#""climate": ["#,
            r#""climate": [{"kind": "monsoon_shift", "days": 15},"#,
        );
        let store = ScenarioStore::new();
        let (scn, _) = store.admit(&spec).unwrap();
        assert_eq!(scn.spec.transforms.len(), 4, "every transform kind");
        assert_sweep_matches_solo(&store, "all", &sys);
    }

    #[test]
    fn parse_sweep_request_validates() {
        let ok = gmr_json::parse(
            r#"{"scenario": "s", "model": "m", "variants": 256,
                "reduce": {"threshold": 30}, "init": [4, 1], "dt": 1}"#,
        )
        .unwrap();
        let req = parse_sweep_request(&ok).unwrap();
        assert_eq!(req.variants, 256);
        assert_eq!(req.reduce.threshold, 30.0);
        assert_eq!(req.init, (4.0, 1.0));
        for bad in [
            r#"{"model": "m", "variants": 1}"#,
            r#"{"scenario": "s", "variants": 1}"#,
            r#"{"scenario": "s", "model": "m"}"#,
            r#"{"scenario": "s", "model": "m", "variants": 0}"#,
            r#"{"scenario": "s", "model": "m", "variants": 99999999}"#,
            // 2^32 + 1 and 2^32 + 256: in range once wrapped to 32 bits.
            r#"{"scenario": "s", "model": "m", "variants": 4294967297}"#,
            r#"{"scenario": "s", "model": "m", "variants": 4294967552}"#,
            r#"{"scenario": "s", "model": "m", "variants": 1, "varaints": 2}"#,
            r#"{"scenario": "s", "model": "m", "variants": 1, "reduce": {"treshold": 1}}"#,
            r#"{"scenario": "s", "model": "m", "variants": 1, "reduce": {"threshold": "1"}}"#,
            r#"{"scenario": "s", "model": "m", "variants": 1, "dt": -1}"#,
        ] {
            let v = gmr_json::parse(bad).unwrap();
            assert!(parse_sweep_request(&v).is_err(), "accepted {bad}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn admit_answers_mangled_specs_with_400(
            at in 0.0f64..1.0,
            flip in 1u8..=255,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            // A truncated spec, a byte-flipped one and random bytes are
            // refused with a 400, never a panic. A flip the parser still
            // accepts (a digit for a digit) admits; only those compile.
            let src = demo_spec("g");
            let at = ((src.len() as f64 * at) as usize).min(src.len() - 1);
            let mut flipped = src.clone().into_bytes();
            flipped[at] ^= flip;
            for text in [
                src[..at].to_string(),
                String::from_utf8_lossy(&flipped).into_owned(),
                String::from_utf8_lossy(&noise).into_owned(),
            ] {
                if let Err((status, msg)) = ScenarioStore::new().admit(&text) {
                    proptest::prop_assert_eq!(status, 400, "{}", msg);
                }
            }
        }
    }
}
