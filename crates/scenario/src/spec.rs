//! The `gmr-scenario/v1` specification: a strict, versioned JSON schema
//! describing a parameterized river scenario.
//!
//! A spec pins everything a scenario needs to be *deterministic by
//! construction*: the topology family and size, the generator seed, the
//! study length, and an ordered list of forcing transforms (climate
//! regimes and dam control points). Parsing is strict — unknown keys,
//! unknown transform kinds, and out-of-range parameters are rejected, the
//! same posture the serving registry takes for model artifacts.

use crate::forcing::{DamSpec, Transform};
use gmr_json::{push_escaped, push_f64, push_u64, read_u64, Value};

/// Schema tag every spec must carry.
pub const SCHEMA: &str = "gmr-scenario/v1";

/// Topology families the generator can grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A single chain of stations: headwater to outlet.
    Mainstem,
    /// A random tree: side tributaries joining a wandering main channel.
    Tributaries,
    /// A tree grown with preferential attachment so multi-feed confluence
    /// nodes (in-degree ≥ 2) are common; confluences become virtual
    /// mixing stations, as in the Nakdong's VS1–VS3.
    Braided,
}

impl TopologyKind {
    fn tag(self) -> &'static str {
        match self {
            TopologyKind::Mainstem => "mainstem",
            TopologyKind::Tributaries => "tributaries",
            TopologyKind::Braided => "braided",
        }
    }
}

/// A validated scenario specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name: the admission key and the sweep routing key.
    pub name: String,
    /// Seed for every draw: topology shape, station environments, the
    /// synthetic generator, and per-variant transform jitter. Written as
    /// a JSON number below 2^53 and as a decimal string from there up.
    pub seed: u64,
    /// Topology family.
    pub kind: TopologyKind,
    /// Total station count, virtual confluences included (2..=512).
    pub stations: usize,
    /// Study length in calendar years starting 1996 (1..=16).
    pub years: usize,
    /// Ordered forcing transforms applied over the generated table.
    pub transforms: Vec<Transform>,
    /// Relative half-width of the per-variant parameter jitter (sweeps
    /// perturb every transform parameter by `±spread` of its base value).
    pub spread: f64,
}

/// Spec rejection with a human-readable reason (safe to echo in a 400).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

fn req<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, SpecError> {
    obj.get(key).ok_or_else(|| err(format!("missing `{key}`")))
}

fn num(v: &Value, key: &str) -> Result<f64, SpecError> {
    v.as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| err(format!("`{key}` must be a finite number")))
}

fn uint(v: &Value, key: &str) -> Result<u64, SpecError> {
    v.as_u64()
        .ok_or_else(|| err(format!("`{key}` must be a non-negative integer")))
}

fn known_keys(v: &Value, allowed: &[&str], what: &str) -> Result<(), SpecError> {
    if let Value::Obj(m) = v {
        for k in m.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(err(format!("unknown {what} key `{k}`")));
            }
        }
        Ok(())
    } else {
        Err(err(format!("{what} must be an object")))
    }
}

/// Parse and validate a spec from already-parsed JSON.
pub fn spec_from_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
    known_keys(
        v,
        &[
            "schema", "name", "seed", "topology", "years", "climate", "dams", "spread",
        ],
        "spec",
    )?;
    let schema = req(v, "schema")?
        .as_str()
        .ok_or_else(|| err("`schema` must be a string"))?;
    if schema != SCHEMA {
        return Err(err(format!("schema `{schema}` is not `{SCHEMA}`")));
    }
    let name = req(v, "name")?
        .as_str()
        .ok_or_else(|| err("`name` must be a string"))?
        .to_string();
    if name.is_empty()
        || name.len() > 64
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(err(
            "`name` must be 1..=64 chars of [A-Za-z0-9_-] (it keys routing)",
        ));
    }
    // Any `u64`: a number below 2^53, a decimal string from there up
    // (a larger number may be another integer's text rounded).
    let seed = read_u64(req(v, "seed")?)
        .ok_or_else(|| err("`seed` must be an integer below 2^53 or a decimal string of a u64"))?;
    let topo = req(v, "topology")?;
    known_keys(topo, &["kind", "stations"], "topology")?;
    let kind = match req(topo, "kind")?.as_str() {
        Some("mainstem") => TopologyKind::Mainstem,
        Some("tributaries") => TopologyKind::Tributaries,
        Some("braided") => TopologyKind::Braided,
        Some(other) => return Err(err(format!("unknown topology kind `{other}`"))),
        None => return Err(err("`topology.kind` must be a string")),
    };
    let stations = uint(req(topo, "stations")?, "topology.stations")? as usize;
    if !(2..=512).contains(&stations) {
        return Err(err("`topology.stations` must be in 2..=512"));
    }
    let years = uint(req(v, "years")?, "years")? as usize;
    if !(1..=16).contains(&years) {
        return Err(err("`years` must be in 1..=16"));
    }
    let spread = match v.get("spread") {
        Some(s) => num(s, "spread")?,
        None => 0.25,
    };
    if !(0.0..=0.9).contains(&spread) {
        return Err(err("`spread` must be in 0.0..=0.9"));
    }

    let mut transforms = Vec::new();
    if let Some(climate) = v.get("climate") {
        let arr = climate
            .as_arr()
            .ok_or_else(|| err("`climate` must be an array"))?;
        for c in arr {
            transforms.push(parse_climate(c)?);
        }
    }
    if let Some(dams) = v.get("dams") {
        let arr = dams
            .as_arr()
            .ok_or_else(|| err("`dams` must be an array"))?;
        if arr.len() > 8 {
            return Err(err("at most 8 dams per scenario"));
        }
        for d in arr {
            transforms.push(Transform::Dam(parse_dam(d)?));
        }
    }

    Ok(ScenarioSpec {
        name,
        seed,
        kind,
        stations,
        years,
        transforms,
        spread,
    })
}

fn parse_climate(c: &Value) -> Result<Transform, SpecError> {
    let kind = req(c, "kind")?
        .as_str()
        .ok_or_else(|| err("climate `kind` must be a string"))?;
    match kind {
        "monsoon_shift" => {
            known_keys(c, &["kind", "days"], "monsoon_shift")?;
            let days = num(req(c, "days")?, "days")?;
            if !(-60.0..=60.0).contains(&days) {
                return Err(err("monsoon_shift `days` must be in -60..=60"));
            }
            Ok(Transform::MonsoonShift { days })
        }
        "heatwave" => {
            known_keys(c, &["kind", "start_day", "length", "amp"], "heatwave")?;
            let start_day = num(req(c, "start_day")?, "start_day")?;
            let length = num(req(c, "length")?, "length")?;
            let amp = num(req(c, "amp")?, "amp")?;
            if !(0.0..=365.0).contains(&start_day) {
                return Err(err("heatwave `start_day` must be in 0..=365"));
            }
            if !(1.0..=120.0).contains(&length) {
                return Err(err("heatwave `length` must be in 1..=120"));
            }
            if !(0.0..=10.0).contains(&amp) {
                return Err(err("heatwave `amp` must be in 0..=10 °C"));
            }
            Ok(Transform::Heatwave {
                start_day,
                length,
                amp,
            })
        }
        "drought" => {
            known_keys(c, &["kind", "scale"], "drought")?;
            let scale = num(req(c, "scale")?, "scale")?;
            if !(0.2..=2.0).contains(&scale) {
                return Err(err("drought `scale` must be in 0.2..=2.0"));
            }
            Ok(Transform::Drought { scale })
        }
        other => Err(err(format!("unknown climate kind `{other}`"))),
    }
}

fn parse_dam(d: &Value) -> Result<DamSpec, SpecError> {
    known_keys(d, &["station", "capacity", "release", "overflow"], "dam")?;
    let station = req(d, "station")?
        .as_str()
        .ok_or_else(|| err("dam `station` must be a string"))?
        .to_string();
    let capacity = num(req(d, "capacity")?, "capacity")?;
    if !(100.0..=1e7).contains(&capacity) {
        return Err(err("dam `capacity` must be in 100..=1e7"));
    }
    let release = match req(d, "release")? {
        Value::Num(n) => vec![*n; 12],
        Value::Arr(a) if a.len() == 12 => a
            .iter()
            .map(|x| num(x, "release"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => {
            return Err(err(
                "dam `release` must be a number or an array of 12 monthly fractions",
            ))
        }
    };
    if release.iter().any(|r| !(0.05..=2.0).contains(r)) {
        return Err(err("dam release fractions must be in 0.05..=2.0"));
    }
    let overflow = num(req(d, "overflow")?, "overflow")?;
    if !(0.0..=1.0).contains(&overflow) {
        return Err(err("dam `overflow` must be in 0..=1"));
    }
    Ok(DamSpec {
        station,
        capacity,
        release,
        overflow,
    })
}

/// Parse and validate a spec from JSON text.
pub fn parse_spec(src: &str) -> Result<ScenarioSpec, SpecError> {
    let v = gmr_json::parse(src).map_err(|e| err(format!("invalid JSON: {e}")))?;
    spec_from_value(&v)
}

/// Render a spec back to its canonical JSON text (round-trips through
/// [`parse_spec`] to an equal spec).
pub fn render_spec(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\": ");
    push_escaped(&mut out, SCHEMA);
    out.push_str(", \"name\": ");
    push_escaped(&mut out, &spec.name);
    out.push_str(", \"seed\": ");
    push_u64(&mut out, spec.seed);
    out.push_str(&format!(
        ", \"topology\": {{\"kind\": \"{}\", \"stations\": {}}}",
        spec.kind.tag(),
        spec.stations
    ));
    out.push_str(&format!(", \"years\": {}", spec.years));
    let climate: Vec<&Transform> = spec
        .transforms
        .iter()
        .filter(|t| !matches!(t, Transform::Dam(_)))
        .collect();
    if !climate.is_empty() {
        out.push_str(", \"climate\": [");
        for (i, t) in climate.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match t {
                Transform::MonsoonShift { days } => {
                    out.push_str("{\"kind\": \"monsoon_shift\", \"days\": ");
                    push_f64(&mut out, *days);
                    out.push('}');
                }
                Transform::Heatwave {
                    start_day,
                    length,
                    amp,
                } => {
                    out.push_str("{\"kind\": \"heatwave\", \"start_day\": ");
                    push_f64(&mut out, *start_day);
                    out.push_str(", \"length\": ");
                    push_f64(&mut out, *length);
                    out.push_str(", \"amp\": ");
                    push_f64(&mut out, *amp);
                    out.push('}');
                }
                Transform::Drought { scale } => {
                    out.push_str("{\"kind\": \"drought\", \"scale\": ");
                    push_f64(&mut out, *scale);
                    out.push('}');
                }
                Transform::Dam(_) => unreachable!("filtered above"),
            }
        }
        out.push(']');
    }
    let dams: Vec<&DamSpec> = spec
        .transforms
        .iter()
        .filter_map(|t| match t {
            Transform::Dam(d) => Some(d),
            _ => None,
        })
        .collect();
    if !dams.is_empty() {
        out.push_str(", \"dams\": [");
        for (i, d) in dams.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"station\": ");
            push_escaped(&mut out, &d.station);
            out.push_str(", \"capacity\": ");
            push_f64(&mut out, d.capacity);
            out.push_str(", \"release\": [");
            for (j, r) in d.release.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_f64(&mut out, *r);
            }
            out.push_str("], \"overflow\": ");
            push_f64(&mut out, d.overflow);
            out.push('}');
        }
        out.push(']');
    }
    out.push_str(", \"spread\": ");
    push_f64(&mut out, spec.spread);
    out.push('}');
    out
}

/// A representative spec used by crate tests and docs.
#[cfg(test)]
pub(crate) fn demo_src() -> String {
    r#"{
        "schema": "gmr-scenario/v1",
        "name": "demo-sweep",
        "seed": 7,
        "topology": {"kind": "braided", "stations": 24},
        "years": 2,
        "climate": [
            {"kind": "monsoon_shift", "days": 15},
            {"kind": "heatwave", "start_day": 190, "length": 12, "amp": 3.5},
            {"kind": "drought", "scale": 0.7}
        ],
        "dams": [
            {"station": "n04", "capacity": 200000, "release": 0.6, "overflow": 0.75}
        ],
        "spread": 0.2
    }"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips() {
        let spec = parse_spec(&demo_src()).unwrap();
        assert_eq!(spec.name, "demo-sweep");
        assert_eq!(spec.kind, TopologyKind::Braided);
        assert_eq!(spec.stations, 24);
        assert_eq!(spec.transforms.len(), 4);
        let back = parse_spec(&render_spec(&spec)).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn rejects_bad_schema_and_unknown_keys() {
        assert!(parse_spec(&demo_src().replace("gmr-scenario/v1", "v2")).is_err());
        assert!(parse_spec(&demo_src().replace("\"seed\"", "\"sneed\"")).is_err());
        assert!(parse_spec(&demo_src().replace("monsoon_shift", "tsunami")).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        for (from, to) in [
            ("\"stations\": 24", "\"stations\": 1"),
            ("\"stations\": 24", "\"stations\": 1000"),
            ("\"years\": 2", "\"years\": 0"),
            ("\"days\": 15", "\"days\": 200"),
            ("\"scale\": 0.7", "\"scale\": 5.0"),
            ("\"overflow\": 0.75", "\"overflow\": 2.0"),
            ("\"spread\": 0.2", "\"spread\": 1.5"),
        ] {
            let src = demo_src().replace(from, to);
            assert!(parse_spec(&src).is_err(), "accepted {to}");
        }
    }

    #[test]
    fn seeds_past_2_pow_53_are_strings_or_refused() {
        let with_seed =
            |seed: &str| demo_src().replace("\"seed\": 7", &format!("\"seed\": {seed}"));
        // A bare number that an f64 cannot hold exactly is refused, not
        // rounded to a neighbour's seed (2^53 + 1 used to parse as 2^53).
        for bare in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            assert!(parse_spec(&with_seed(bare)).is_err(), "accepted {bare}");
        }
        assert_eq!(
            parse_spec(&with_seed("9007199254740991")).unwrap().seed,
            (1 << 53) - 1
        );
        // Any u64 as a decimal string, and back through the renderer.
        for seed in [1u64 << 53, (1 << 53) + 1, u64::MAX] {
            let spec = parse_spec(&with_seed(&format!("\"{seed}\""))).unwrap();
            assert_eq!(spec.seed, seed);
            let text = render_spec(&spec);
            assert!(text.contains(&format!("\"seed\": \"{seed}\"")), "{text}");
            assert_eq!(parse_spec(&text).unwrap(), spec);
        }
        assert!(parse_spec(&with_seed("\"18446744073709551616\"")).is_err());
        assert!(parse_spec(&with_seed("\"-1\"")).is_err());
    }

    #[test]
    fn monthly_release_schedule_accepted() {
        let src = demo_src().replace(
            "\"release\": 0.6",
            "\"release\": [0.4,0.4,0.5,0.6,0.7,0.8,1.0,1.0,0.8,0.6,0.5,0.4]",
        );
        let spec = parse_spec(&src).unwrap();
        let dam = spec
            .transforms
            .iter()
            .find_map(|t| match t {
                Transform::Dam(d) => Some(d),
                _ => None,
            })
            .unwrap();
        assert_eq!(dam.release.len(), 12);
        assert_eq!(dam.release[6], 1.0);
    }

    /// The benchmark's spec shape: braided topology, every climate kind,
    /// and a dam on the last physical station that is not the outlet.
    fn braided_dam_src() -> String {
        let mut spec = parse_spec(
            r#"{"schema": "gmr-scenario/v1", "name": "bench", "seed": 42,
                "topology": {"kind": "braided", "stations": 16}, "years": 1,
                "climate": [{"kind": "monsoon_shift", "days": 10},
                            {"kind": "heatwave", "start_day": 185, "length": 15, "amp": 3},
                            {"kind": "drought", "scale": 0.85}],
                "spread": 0.25}"#,
        )
        .unwrap();
        let (net, _) = crate::topology::build_topology(&spec);
        let station = net
            .stations()
            .filter(|(sid, st)| *sid != net.outlet() && st.kind != gmr_hydro::StationKind::Virtual)
            .map(|(_, st)| st.name.clone())
            .last()
            .unwrap();
        spec.transforms.push(Transform::Dam(DamSpec {
            station,
            capacity: 200_000.0,
            release: vec![0.6; 12],
            overflow: 0.75,
        }));
        render_spec(&spec)
    }

    /// `src` mangled at fraction `at` of its length: cut short there
    /// (`how == 0`), that byte XOR-ed with `x` (`1`), or the first digit
    /// from there on replaced by `x % 10` (`2`, which mostly keeps the
    /// text a valid spec).
    fn mangle(src: &str, how: u8, at: f64, x: u8) -> String {
        let mut bytes = src.as_bytes().to_vec();
        let at = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        match how {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= x,
            _ => {
                if let Some(d) = bytes[at..].iter_mut().find(|b| b.is_ascii_digit()) {
                    *d = b'0' + x % 10;
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn mangled_specs_parse_or_refuse_and_render_canonically(
            bench in proptest::prelude::any::<bool>(),
            how in 0u8..3,
            at in 0.0f64..1.0,
            x in 1u8..=255,
        ) {
            // Parsing never panics; whatever it accepts renders to
            // canonical text that parses back to the same spec and
            // renders to itself.
            let src = if bench { braided_dam_src() } else { demo_src() };
            if let Ok(spec) = parse_spec(&mangle(&src, how, at, x)) {
                let canonical = render_spec(&spec);
                let back = parse_spec(&canonical);
                proptest::prop_assert_eq!(back.as_ref(), Ok(&spec), "{}", canonical);
                proptest::prop_assert_eq!(render_spec(&spec), canonical);
            }
        }
    }
}
