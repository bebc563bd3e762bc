//! The `gmr-model/v1` artifact format.
//!
//! A revised river model's deployable form is tiny: two equations with
//! every calibrated constant embedded in the text (`CUA[1.73]`), plus the
//! variable/state/parameter schema those equations were written against
//! and enough provenance to trace the artifact back to the run that
//! produced it. This module defines that interchange format as versioned
//! JSON, with a save/load round trip through the `gmr-expr` parser that
//! preserves every constant bit-for-bit (the pretty-printer renders `f64`s
//! shortest-round-trip, and the parser reads them back with correctly
//! rounded `f64` parsing).
//!
//! Network models additionally carry the station topology (names, kinds,
//! retention ratios, edges with travel delays) so a server can route
//! water bodies between stations without access to the training dataset.

use gmr_expr::{parse_with_defaults, Expr, NameTable, ParseError};
use gmr_hydro::network::{Edge, RiverNetwork, Station, StationId, StationKind};
use gmr_json::{parse as parse_json, push_escaped, push_f64, push_u64, read_u64, Value};
use std::fmt;
use std::path::Path;

/// Schema tag required in every artifact file.
pub const SCHEMA: &str = "gmr-model/v1";

/// Canonical labels for the two river equations, in artifact order.
pub const EQUATION_LABELS: [&str; 2] = ["dBPhy/dt", "dBZoo/dt"];

/// Where an artifact came from: the run identity and champion scores.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// What produced the artifact: `"search"` for a GP champion,
    /// `"builtin"` for the hand-written expert model, free-form otherwise.
    pub source: String,
    /// Engine master seed of the producing run (0 for builtins).
    pub seed: u64,
    /// Generation at which the champion last improved.
    pub generation: u64,
    /// Champion training fitness (RMSE).
    pub fitness: f64,
    /// Train RMSE, when the producer scored the model.
    pub train_rmse: Option<f64>,
    /// Test RMSE, when the producer scored the model.
    pub test_rmse: Option<f64>,
    /// FNV-1a hash of the producing run's journal JSONL (`fnv1a:<hex>`),
    /// when a journal was live at export time.
    pub journal_hash: Option<String>,
}

/// A loadable model: equations as canonical text plus their schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Registry key (also the default file stem).
    pub name: String,
    /// Canonical expression text, one entry per equation, in
    /// [`EQUATION_LABELS`] order.
    pub equations: Vec<String>,
    /// Forcing-variable names the equations index (Table IV order).
    pub vars: Vec<String>,
    /// State-variable names (`BPhy`, `BZoo`).
    pub states: Vec<String>,
    /// Parameter names (Table III order). Constants are embedded in the
    /// equation text, so these exist to resolve identifiers, not values.
    pub params: Vec<String>,
    /// Station topology, for network models.
    pub topology: Option<RiverNetwork>,
    /// Run identity and scores.
    pub provenance: Provenance,
}

/// Failures while reading or writing an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Json(gmr_json::ParseError),
    /// The JSON is well-formed but not a `gmr-model/v1` document.
    Schema(String),
    /// An equation failed to re-parse against the embedded name table.
    Equation {
        /// Which equation (artifact order).
        index: usize,
        /// The parser's complaint.
        err: ParseError,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "io error: {e}"),
            ArtifactError::Json(e) => write!(f, "invalid JSON: {e}"),
            ArtifactError::Schema(msg) => write!(f, "not a {SCHEMA} artifact: {msg}"),
            ArtifactError::Equation { index, err } => {
                write!(f, "equation {index} does not parse: {err}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// FNV-1a over a byte string, rendered as the artifact's journal-hash form.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("fnv1a:{h:016x}")
}

impl ModelArtifact {
    /// Build an artifact from lowered equations using the canonical river
    /// name table. The expression text is rendered with every constant
    /// embedded, so the artifact is self-contained.
    pub fn from_equations(name: &str, eqs: &[Expr], provenance: Provenance) -> ModelArtifact {
        let names = gmr_bio::name_table();
        ModelArtifact {
            name: name.to_string(),
            equations: eqs.iter().map(|e| e.display(&names).to_string()).collect(),
            vars: names.vars.clone(),
            states: names.states.clone(),
            params: names.params.clone(),
            topology: None,
            provenance,
        }
    }

    /// Build an artifact from a finished GMR run: the champion equations
    /// plus scores, seed and champion generation from its [`RunReport`]
    /// (`gmr_gp::RunReport`), and the live journal's hash when
    /// observability is on.
    pub fn from_gmr(name: &str, result: &gmr_core::GmrResult, seed: u64) -> ModelArtifact {
        let provenance = Provenance {
            source: "search".into(),
            seed,
            generation: result.report.champion_generation(),
            fitness: result.report.best.fitness,
            train_rmse: Some(result.train_rmse),
            test_rmse: Some(result.test_rmse),
            journal_hash: gmr_obsv::global().map(|j| fnv1a_hex(j.to_jsonl().as_bytes())),
        };
        Self::from_equations(name, &result.equations, provenance)
    }

    /// The Table V expert model (M ANUAL) as a `builtin` artifact carrying
    /// the Nakdong station topology — the seed model every revision starts
    /// from, and the model the serving benchmarks run.
    pub fn builtin_manual() -> ModelArtifact {
        let eqs = gmr_bio::manual_system();
        let mut a = Self::from_equations(
            "table5-manual",
            &eqs,
            Provenance {
                source: "builtin".into(),
                ..Provenance::default()
            },
        );
        a.topology = Some(RiverNetwork::nakdong());
        a
    }

    /// The name table embedded in this artifact.
    pub fn name_table(&self) -> NameTable {
        NameTable {
            vars: self.vars.clone(),
            states: self.states.clone(),
            params: self.params.clone(),
        }
    }

    /// Re-parse the equation text into expression trees. Bare parameter
    /// names (no embedded `[value]`) fall back to the river prior means;
    /// the artifact writer always embeds values, so that path only fires
    /// on hand-edited files. A bare name past the river priors is an
    /// [`ArtifactError::Equation`].
    pub fn parse_equations(&self) -> Result<Vec<Expr>, ArtifactError> {
        let names = self.name_table();
        self.equations
            .iter()
            .enumerate()
            .map(|(index, text)| {
                parse_with_defaults(text, &names, gmr_bio::params::prior_mean)
                    .map_err(|err| ArtifactError::Equation { index, err })
            })
            .collect()
    }

    /// Serialize to a `gmr-model/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str("{\n  \"schema\": \"");
        o.push_str(SCHEMA);
        o.push_str("\",\n  \"name\": ");
        push_escaped(&mut o, &self.name);
        o.push_str(",\n  \"equations\": [");
        for (i, (label, text)) in EQUATION_LABELS.iter().zip(&self.equations).enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str("\n    {\"label\": ");
            push_escaped(&mut o, label);
            o.push_str(", \"text\": ");
            push_escaped(&mut o, text);
            o.push('}');
        }
        o.push_str("\n  ],\n");
        for (key, list) in [
            ("vars", &self.vars),
            ("states", &self.states),
            ("params", &self.params),
        ] {
            o.push_str(&format!("  \"{key}\": ["));
            for (i, name) in list.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                push_escaped(&mut o, name);
            }
            o.push_str("],\n");
        }
        if let Some(net) = &self.topology {
            o.push_str("  \"topology\": {\"stations\": [");
            for (i, (_, st)) in net.stations().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str("\n    {\"name\": ");
                push_escaped(&mut o, &st.name);
                o.push_str(&format!(
                    ", \"kind\": \"{}\", \"retention\": ",
                    match st.kind {
                        StationKind::Measuring => "measuring",
                        StationKind::Virtual => "virtual",
                    }
                ));
                push_f64(&mut o, st.retention);
                o.push('}');
            }
            o.push_str("\n  ], \"edges\": [");
            for (i, e) in net.edges().iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str("\n    {\"from\": ");
                push_escaped(&mut o, &net.station(e.from).name);
                o.push_str(", \"to\": ");
                push_escaped(&mut o, &net.station(e.to).name);
                o.push_str(", \"distance_km\": ");
                push_f64(&mut o, e.distance_km);
                o.push_str(&format!(", \"delay_days\": {}}}", e.delay_days));
            }
            o.push_str("\n  ]},\n");
        }
        let p = &self.provenance;
        o.push_str("  \"provenance\": {\"source\": ");
        push_escaped(&mut o, &p.source);
        o.push_str(", \"seed\": ");
        push_u64(&mut o, p.seed);
        o.push_str(", \"generation\": ");
        push_u64(&mut o, p.generation);
        o.push_str(", \"fitness\": ");
        push_f64(&mut o, p.fitness);
        if let Some(v) = p.train_rmse {
            o.push_str(", \"train_rmse\": ");
            push_f64(&mut o, v);
        }
        if let Some(v) = p.test_rmse {
            o.push_str(", \"test_rmse\": ");
            push_f64(&mut o, v);
        }
        if let Some(h) = &p.journal_hash {
            o.push_str(", \"journal_hash\": ");
            push_escaped(&mut o, h);
        }
        o.push_str("}\n}\n");
        o
    }

    /// Parse a `gmr-model/v1` document.
    pub fn from_json(text: &str) -> Result<ModelArtifact, ArtifactError> {
        let v = parse_json(text).map_err(ArtifactError::Json)?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(ArtifactError::Schema(format!(
                "schema tag is {schema:?}, expected {SCHEMA:?}"
            )));
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ArtifactError::Schema("missing \"name\"".into()))?
            .to_string();
        let equations: Vec<String> = v
            .get("equations")
            .and_then(Value::as_arr)
            .ok_or_else(|| ArtifactError::Schema("missing \"equations\"".into()))?
            .iter()
            .map(|eq| {
                eq.get("text")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| ArtifactError::Schema("equation without \"text\"".into()))
            })
            .collect::<Result<_, _>>()?;
        if equations.is_empty() {
            return Err(ArtifactError::Schema("no equations".into()));
        }
        let str_list = |key: &str| -> Result<Vec<String>, ArtifactError> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| ArtifactError::Schema(format!("missing {key:?}")))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ArtifactError::Schema(format!("non-string in {key:?}")))
                })
                .collect()
        };
        let topology = match v.get("topology") {
            None => None,
            Some(t) => Some(parse_topology(t)?),
        };
        let p = v
            .get("provenance")
            .ok_or_else(|| ArtifactError::Schema("missing \"provenance\"".into()))?;
        let provenance = Provenance {
            source: p
                .get("source")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            seed: p.get("seed").and_then(read_u64).unwrap_or(0),
            generation: p.get("generation").and_then(read_u64).unwrap_or(0),
            fitness: p.get("fitness").and_then(Value::as_f64).unwrap_or(f64::NAN),
            train_rmse: p.get("train_rmse").and_then(Value::as_f64),
            test_rmse: p.get("test_rmse").and_then(Value::as_f64),
            journal_hash: p
                .get("journal_hash")
                .and_then(Value::as_str)
                .map(str::to_string),
        };
        Ok(ModelArtifact {
            name,
            equations,
            vars: str_list("vars")?,
            states: str_list("states")?,
            params: str_list("params")?,
            topology,
            provenance,
        })
    }

    /// Write the artifact to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Read an artifact from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<ModelArtifact, ArtifactError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

fn parse_topology(t: &Value) -> Result<RiverNetwork, ArtifactError> {
    let bad = |msg: &str| ArtifactError::Schema(format!("topology: {msg}"));
    let st_arr = t
        .get("stations")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("missing stations"))?;
    let mut stations = Vec::with_capacity(st_arr.len());
    let mut index = std::collections::BTreeMap::new();
    for (i, s) in st_arr.iter().enumerate() {
        let name = s
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("station without name"))?;
        let kind = match s.get("kind").and_then(Value::as_str) {
            Some("measuring") => StationKind::Measuring,
            Some("virtual") => StationKind::Virtual,
            other => return Err(bad(&format!("station kind {other:?}"))),
        };
        let retention = s
            .get("retention")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("station without retention"))?;
        index.insert(name.to_string(), StationId(i));
        stations.push(Station {
            name: name.to_string(),
            kind,
            retention,
        });
    }
    let edge_arr = t
        .get("edges")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("missing edges"))?;
    let mut edges = Vec::with_capacity(edge_arr.len());
    for e in edge_arr {
        let endpoint = |key: &str| -> Result<StationId, ArtifactError> {
            let name = e
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| bad(&format!("edge without {key:?}")))?;
            index
                .get(name)
                .copied()
                .ok_or_else(|| bad(&format!("edge references unknown station {name:?}")))
        };
        edges.push(Edge {
            from: endpoint("from")?,
            to: endpoint("to")?,
            distance_km: e.get("distance_km").and_then(Value::as_f64).unwrap_or(0.0),
            delay_days: e
                .get("delay_days")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("edge without delay_days"))? as usize,
        });
    }
    RiverNetwork::new(stations, edges).map_err(|e| bad(&format!("invalid network: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_round_trips_bit_identically() {
        let a = ModelArtifact::builtin_manual();
        let text = a.to_json();
        let b = ModelArtifact::from_json(&text).expect("parses");
        assert_eq!(a.name, b.name);
        assert_eq!(a.equations, b.equations);
        assert_eq!(a.vars, b.vars);
        assert_eq!(a.states, b.states);
        assert_eq!(a.params, b.params);
        assert_eq!(a.provenance, b.provenance);
        // Equations re-parse to exactly the expert system.
        let eqs = b.parse_equations().expect("equations parse");
        let manual = gmr_bio::manual_system();
        assert_eq!(eqs[0], manual[0]);
        assert_eq!(eqs[1], manual[1]);
        // Topology survives: same station count, edges, delays.
        let net = b.topology.expect("topology present");
        let nak = RiverNetwork::nakdong();
        assert_eq!(net.len(), nak.len());
        assert_eq!(net.edges().len(), nak.edges().len());
        for (a, b) in net.edges().iter().zip(nak.edges()) {
            assert_eq!((a.from, a.to, a.delay_days), (b.from, b.to, b.delay_days));
        }
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(matches!(
            ModelArtifact::from_json("{\"schema\": \"gmr-model/v0\"}"),
            Err(ArtifactError::Schema(_))
        ));
        assert!(matches!(
            ModelArtifact::from_json("not json"),
            Err(ArtifactError::Json(_))
        ));
        let a = ModelArtifact::builtin_manual();
        let broken = a.to_json().replace("BPhy *", "BPhy ***");
        let parsed = ModelArtifact::from_json(&broken).expect("still valid JSON");
        assert!(matches!(
            parsed.parse_equations(),
            Err(ArtifactError::Equation { index: 0, .. })
        ));
    }

    /// A hand-edited artifact listing a parameter past the 17 river priors
    /// and naming it without an embedded `[value]`.
    fn extra_bare_param_artifact() -> ModelArtifact {
        let mut a = ModelArtifact::builtin_manual();
        a.params.push("CXTRA".into());
        a.equations[0] = format!("{} + CXTRA", a.equations[0]);
        a
    }

    #[test]
    fn bare_parameter_past_the_priors_is_an_error_not_a_panic() {
        let a = ModelArtifact::from_json(&extra_bare_param_artifact().to_json()).unwrap();
        match a.parse_equations() {
            Err(ArtifactError::Equation { index: 0, err }) => {
                assert!(err.msg.contains("'CXTRA'"), "{err}")
            }
            other => panic!("expected an equation error, got {other:?}"),
        }
        // With its value embedded the same parameter is fine.
        let mut ok = extra_bare_param_artifact();
        ok.equations[0] = ok.equations[0].replace("CXTRA", "CXTRA[0.5]");
        assert!(ok.parse_equations().is_ok());
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a_hex(b""), "fnv1a:cbf29ce484222325");
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
    }
}
