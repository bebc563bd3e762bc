//! The in-process model registry: artifact → linted, compiled, memoised.
//!
//! Loading a `gmr-model/v1` artifact is the serving stack's trust
//! boundary, so admission is gated exactly like the training stack's own
//! acceptance path: the equations must re-parse, pass the `gmr-lint`
//! battery without Error-severity findings (arity errors, malformed
//! structure — under [`Policy::Revision`] a dimensional mismatch a GP
//! champion legitimately carries is a warning, not a rejection), compile
//! through [`CompiledSystem::compile_checked`], and the *compiled
//! bytecode itself* must pass the abstract interpreter
//! ([`gmr_lint::analyze_system`]): register bounds proved for the VM's
//! unchecked accesses, the split prefix proved state-independent, no dead
//! or uninitialized code. Every verification is journaled as a
//! `serve.lint` note, pass or fail. The compiled system is memoised
//! behind an `Arc` exactly like the GP engine's phenotype cache, so every
//! request for a model shares one compilation.
//!
//! Residency is two-tiered. The *cold* record — artifact, admission
//! verdicts, served tier — is always resident and cheap. The *hot*
//! record — the compiled system plus the materialized [`PrefixTable`]s
//! it has swept per forcing table — lives in a bounded LRU
//! ([`ModelRegistry::set_hot_cap`]): a [`touch`](ModelRegistry::touch)
//! of a cold model recompiles it (and re-verifies the bytecode; both are
//! deterministic replays of admission) and may evict the least-recently
//! touched hot model, dropping its compilation and prefix tables. The
//! cap bounds resident memory per backend; a cluster's gateway shards
//! models across backends so each backend's working set fits its cap.

use crate::artifact::{ArtifactError, ModelArtifact};
use gmr_expr::{CompiledSystem, FidelityPolicy, PrefixTable, Tier};
use gmr_lint::{analyze_system, env_for_arity, EquationLinter, Policy, Severity};
use gmr_obsv::Event;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A model admitted to serving: the always-resident cold record.
#[derive(Debug)]
pub struct ServableModel {
    /// The artifact as loaded.
    pub artifact: ModelArtifact,
    /// Human-readable lint findings below Error severity (empty = clean).
    pub lint_warnings: String,
    /// Warning-severity findings from bytecode verification (the compiled
    /// system was still admitted; Error findings refuse admission).
    pub bytecode_warnings: usize,
    /// The tier admission compiled for: a hot-tier miss recompiles at it,
    /// and `/models` reports it with its fidelity.
    tier: Tier,
}

/// A model resident in the hot tier: the shared compilation plus the
/// prefix tables it has materialized, one per forcing table. Evicting
/// the hot record drops both — the next touch pays recompilation and a
/// fresh columnar sweep.
#[derive(Debug)]
pub struct HotModel {
    /// The register-VM compilation every request shares.
    pub system: Arc<CompiledSystem>,
    /// Materialized prefix columns by forcing-table name.
    prefixes: Mutex<BTreeMap<String, Arc<PrefixTable>>>,
}

impl HotModel {
    /// The materialized prefix columns for `rows` (keyed by table name),
    /// swept on first use and reused while this model stays hot. The
    /// cached table covers the *full* hosted table, so any request
    /// horizon `days <= rows.len()` shares it.
    pub fn prefix_for<R: AsRef<[f64]>>(&self, table: &str, rows: &[R]) -> Arc<PrefixTable> {
        let mut map = self.prefixes.lock().unwrap();
        if let Some(p) = map.get(table) {
            if self.system.n_pre() == 0 || p.rows() >= rows.len() {
                return p.clone();
            }
        }
        let p = Arc::new(self.system.sweep_prefix(rows));
        map.insert(table.to_string(), p.clone());
        p
    }

    /// Resident bytes of all materialized prefix tables.
    pub fn prefix_bytes(&self) -> usize {
        self.prefixes
            .lock()
            .unwrap()
            .values()
            .map(|p| p.bytes())
            .sum()
    }
}

/// Hot-tier counters for `/metrics` (monotonic since startup).
#[derive(Debug, Clone, Copy, Default)]
pub struct HotStats {
    /// Touches served from the hot tier.
    pub hits: u64,
    /// Touches that recompiled a cold model.
    pub misses: u64,
    /// Hot records dropped to respect the cap.
    pub evictions: u64,
    /// Models currently resident in the hot tier.
    pub resident: u64,
    /// Resident bytes of materialized prefix tables across hot models.
    pub prefix_bytes: u64,
}

/// Why an artifact was refused admission.
#[derive(Debug)]
pub enum RegistryError {
    /// The file failed to load or its equations failed to re-parse.
    Artifact(ArtifactError),
    /// The lint battery found Error-severity problems.
    Lint {
        /// Model name.
        model: String,
        /// Error-severity findings.
        errors: usize,
        /// Human rendering of the report.
        report: String,
    },
    /// The equations reference indices outside the artifact's own schema.
    Compile(String),
    /// The compiled bytecode failed abstract-interpretation verification
    /// (unprovable register bounds, a state-dependent prefix instruction,
    /// uninitialized reads — anything the VM's `unsafe` fast path must
    /// never execute).
    Bytecode {
        /// Model name.
        model: String,
        /// Error-severity findings.
        errors: usize,
        /// Human rendering of the analyzer report.
        report: String,
    },
    /// The compiled system's numeric fidelity is outside the registry's
    /// policy — e.g. a relaxed-SIMD compilation offered to a registry
    /// serving bit-exact results.
    Fidelity {
        /// Model name.
        model: String,
        /// The offered system's fidelity ([`gmr_expr::Fidelity::name`]).
        fidelity: &'static str,
    },
    /// A different artifact already holds this name.
    Duplicate(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Artifact(e) => write!(f, "{e}"),
            RegistryError::Lint { model, errors, .. } => {
                write!(f, "model {model:?} rejected by lint: {errors} error(s)")
            }
            RegistryError::Compile(msg) => write!(f, "compile failed: {msg}"),
            RegistryError::Bytecode { model, errors, .. } => {
                write!(
                    f,
                    "model {model:?} rejected by bytecode verification: {errors} error(s)"
                )
            }
            RegistryError::Fidelity { model, fidelity } => {
                write!(
                    f,
                    "model {model:?} rejected: {fidelity} results are outside \
                     the registry's fidelity policy"
                )
            }
            RegistryError::Duplicate(name) => write!(f, "model {name:?} already registered"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ArtifactError> for RegistryError {
    fn from(e: ArtifactError) -> Self {
        RegistryError::Artifact(e)
    }
}

/// The registry: admitted models by name, compiled at the fastest tier
/// the registry's [`FidelityPolicy`] allows, with compiled systems
/// resident in a bounded hot LRU (see the module docs).
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<ServableModel>>,
    policy: FidelityPolicy,
    /// Max hot models; 0 = unbounded.
    hot_cap: usize,
    hot: Mutex<HotTier>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The LRU state behind [`ModelRegistry::touch`].
#[derive(Debug, Default)]
struct HotTier {
    entries: BTreeMap<String, (Arc<HotModel>, u64)>,
    clock: u64,
}

impl ModelRegistry {
    /// An empty registry serving bit-exact results
    /// ([`FidelityPolicy::BitExact`], the default).
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// An empty registry under an explicit fidelity policy. Admission
    /// compiles at [`Tier::fastest`] for the policy, and any pre-compiled
    /// system offered through the test-only gate is checked against it.
    pub fn with_policy(policy: FidelityPolicy) -> ModelRegistry {
        ModelRegistry {
            policy,
            ..ModelRegistry::default()
        }
    }

    /// The fidelity policy admissions are gated on.
    pub fn policy(&self) -> FidelityPolicy {
        self.policy
    }

    /// Bound the hot tier to `cap` resident compilations (0 = unbounded,
    /// the default). Shrinking below current residency evicts
    /// least-recently-touched models immediately.
    pub fn set_hot_cap(&mut self, cap: usize) {
        self.hot_cap = cap;
        let mut hot = self.hot.lock().unwrap();
        self.evict_over_cap(&mut hot);
    }

    /// The configured hot cap (0 = unbounded).
    pub fn hot_cap(&self) -> usize {
        self.hot_cap
    }

    fn evict_over_cap(&self, hot: &mut HotTier) {
        while self.hot_cap > 0 && hot.entries.len() > self.hot_cap {
            let coldest = hot
                .entries
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(name, _)| name.clone())
                .expect("non-empty over cap");
            hot.entries.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Admit one artifact: re-parse, lint (Error severity rejects),
    /// compile, memoise.
    pub fn insert(&mut self, artifact: ModelArtifact) -> Result<(), RegistryError> {
        if self.models.contains_key(&artifact.name) {
            return Err(RegistryError::Duplicate(artifact.name.clone()));
        }
        let _sp = gmr_obsv::span!("serve.admit");
        let eqs = artifact.parse_equations()?;
        let report = EquationLinter::river(Policy::Revision).lint(&eqs);
        let errors = report.count(Severity::Error);
        if errors > 0 {
            return Err(RegistryError::Lint {
                model: artifact.name.clone(),
                errors,
                report: report.render_human(),
            });
        }
        let lint_warnings = if report.count(Severity::Warn) > 0 {
            report.render_human()
        } else {
            String::new()
        };
        let system = CompiledSystem::compile_checked(
            &eqs,
            artifact.vars.len(),
            artifact.states.len(),
            Tier::fastest(self.policy),
        )
        .map_err(|e| RegistryError::Compile(format!("{e:?}")))?;
        self.admit(artifact, system, lint_warnings)
    }

    /// Admit a pre-compiled system through the bytecode verification gate,
    /// skipping the AST-level path. Exists so tests can prove that a
    /// corrupted [`CompiledSystem`] — one the pipeline can never produce —
    /// is refused at this trust boundary; production admission always goes
    /// through [`insert`](Self::insert).
    #[doc(hidden)]
    pub fn insert_prepared(
        &mut self,
        artifact: ModelArtifact,
        system: CompiledSystem,
    ) -> Result<(), RegistryError> {
        self.admit(artifact, system, String::new())
    }

    /// The shared bytecode-verification gate: analyze the compiled
    /// programs, journal the verdict as a `serve.lint` note, refuse on any
    /// Error-severity finding, memoise otherwise.
    fn admit(
        &mut self,
        artifact: ModelArtifact,
        system: CompiledSystem,
        lint_warnings: String,
    ) -> Result<(), RegistryError> {
        if self.models.contains_key(&artifact.name) {
            return Err(RegistryError::Duplicate(artifact.name.clone()));
        }
        if !self.policy.allows(system.fidelity()) {
            return Err(RegistryError::Fidelity {
                model: artifact.name.clone(),
                fidelity: system.fidelity().name(),
            });
        }
        let env = env_for_arity(artifact.vars.len(), artifact.states.len());
        let analysis = analyze_system(&system, &env, &artifact.name);
        let errors = analysis.report.count(Severity::Error);
        let bytecode_warnings = analysis.report.count(Severity::Warn);
        gmr_obsv::emit(Event::Note {
            name: "serve.lint",
            msg: format!(
                "model {:?}: bytecode verification {} — {} error(s), {} warning(s), \
                 unsafe bounds {}",
                artifact.name,
                if errors == 0 { "passed" } else { "failed" },
                errors,
                bytecode_warnings,
                if analysis.safety.proved() {
                    "proved"
                } else {
                    "UNPROVED"
                },
            ),
        });
        if errors > 0 {
            return Err(RegistryError::Bytecode {
                model: artifact.name.clone(),
                errors,
                report: analysis.report.render_human(),
            });
        }
        let name = artifact.name.clone();
        self.models.insert(
            name.clone(),
            Arc::new(ServableModel {
                artifact,
                lint_warnings,
                bytecode_warnings,
                tier: system.tier(),
            }),
        );
        // Admission's compilation seeds the hot tier (it counts as the
        // first touch), possibly evicting an older resident.
        let mut hot = self.hot.lock().unwrap();
        hot.clock += 1;
        let stamp = hot.clock;
        hot.entries.insert(
            name,
            (
                Arc::new(HotModel {
                    system: Arc::new(system),
                    prefixes: Mutex::new(BTreeMap::new()),
                }),
                stamp,
            ),
        );
        self.evict_over_cap(&mut hot);
        Ok(())
    }

    /// The hot-path lookup: the compiled system (and its prefix caches)
    /// for `name`, marking it most-recently used. A miss replays
    /// admission's deterministic compile + bytecode verification from the
    /// cold artifact — the cost an eviction deferred — and may evict the
    /// least-recently touched resident to stay under the cap.
    pub fn touch(&self, name: &str) -> Option<Arc<HotModel>> {
        let cold = self.models.get(name)?;
        let mut hot = self.hot.lock().unwrap();
        hot.clock += 1;
        let stamp = hot.clock;
        if let Some((model, touched)) = hot.entries.get_mut(name) {
            *touched = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(model.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let _sp = gmr_obsv::span!("serve.recompile");
        let eqs = cold
            .artifact
            .parse_equations()
            .expect("admitted artifact re-parses");
        let system = CompiledSystem::compile_checked(
            &eqs,
            cold.artifact.vars.len(),
            cold.artifact.states.len(),
            cold.tier,
        )
        .expect("admitted artifact recompiles");
        // Deterministic replay of the admission-time proof: the same
        // artifact and tier produce the same bytecode, so this can
        // only fail if admission would have refused the model.
        let env = env_for_arity(cold.artifact.vars.len(), cold.artifact.states.len());
        let analysis = analyze_system(&system, &env, name);
        assert_eq!(
            analysis.report.count(Severity::Error),
            0,
            "recompiled bytecode must re-verify"
        );
        let model = Arc::new(HotModel {
            system: Arc::new(system),
            prefixes: Mutex::new(BTreeMap::new()),
        });
        hot.entries.insert(name.to_string(), (model.clone(), stamp));
        self.evict_over_cap(&mut hot);
        Some(model)
    }

    /// Hot-tier counters and residency for `/metrics`.
    pub fn stats(&self) -> HotStats {
        let hot = self.hot.lock().unwrap();
        HotStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: hot.entries.len() as u64,
            prefix_bytes: hot
                .entries
                .values()
                .map(|(m, _)| m.prefix_bytes() as u64)
                .sum(),
        }
    }

    /// Load every `*.json` artifact in a directory (sorted by file name so
    /// admission order — and therefore duplicate resolution — is
    /// deterministic). Returns how many were admitted; the first failure
    /// aborts the load.
    pub fn load_dir(&mut self, dir: impl AsRef<Path>) -> Result<usize, RegistryError> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| RegistryError::Artifact(ArtifactError::Io(e)))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut admitted = 0;
        for p in paths {
            self.insert(ModelArtifact::load(&p)?)?;
            admitted += 1;
        }
        Ok(admitted)
    }

    /// The admitted model under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<ServableModel>> {
        self.models.get(name).cloned()
    }

    /// Admitted model names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of admitted models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no model is admitted.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The `/models` endpoint body: a JSON array of model summaries.
    pub fn render_json(&self) -> String {
        use gmr_json::{push_escaped, push_f64};
        let mut o = String::from("{\"models\": [");
        for (i, (name, m)) in self.models.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str("\n  {\"name\": ");
            push_escaped(&mut o, name);
            o.push_str(", \"source\": ");
            push_escaped(&mut o, &m.artifact.provenance.source);
            o.push_str(", \"fitness\": ");
            push_f64(&mut o, m.artifact.provenance.fitness);
            o.push_str(&format!(
                ", \"equations\": {}, \"network\": {}, \"bytecode_warnings\": {}",
                m.artifact.equations.len(),
                m.artifact.topology.is_some(),
                m.bytecode_warnings
            ));
            o.push_str(", \"tier\": ");
            push_escaped(&mut o, m.tier.name());
            o.push_str(", \"fidelity\": ");
            push_escaped(&mut o, m.tier.fidelity().name());
            o.push('}');
        }
        o.push_str("\n]}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_is_admitted_and_memoised() {
        let mut reg = ModelRegistry::new();
        reg.insert(ModelArtifact::builtin_manual()).unwrap();
        assert_eq!(reg.names(), ["table5-manual"]);
        let a = reg.get("table5-manual").unwrap();
        let b = reg.get("table5-manual").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one admission, one Arc");
        let ha = reg.touch("table5-manual").unwrap();
        let hb = reg.touch("table5-manual").unwrap();
        assert!(Arc::ptr_eq(&ha, &hb), "hot hits share one Arc");
        assert!(Arc::ptr_eq(&ha.system, &hb.system));
        assert_eq!(ha.system.n_eqs(), 2);
        assert!(a.lint_warnings.is_empty(), "{}", a.lint_warnings);
        assert_eq!(a.bytecode_warnings, 0);
        assert!(reg.render_json().contains("\"bytecode_warnings\": 0"));
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (2, 0, 1));
    }

    #[test]
    fn hot_tier_evicts_lru_and_recompiles_on_touch() {
        let mut reg = ModelRegistry::new();
        for i in 0..3 {
            let mut a = ModelArtifact::builtin_manual();
            a.name = format!("m{i}");
            reg.insert(a).unwrap();
        }
        reg.set_hot_cap(2);
        assert_eq!(reg.stats().resident, 2, "cap shrink evicts immediately");
        assert_eq!(reg.stats().evictions, 1);

        // m0 was the least recently touched (admission order) — gone.
        // Touching it again recompiles and evicts m1 in turn.
        let before = reg.stats().misses;
        let m0 = reg.touch("m0").unwrap();
        assert_eq!(m0.system.n_eqs(), 2, "recompiled system serves");
        assert_eq!(reg.stats().misses, before + 1);
        assert_eq!(reg.stats().resident, 2);

        // m0 is now hottest: touching it again is a hit on the same Arc.
        let again = reg.touch("m0").unwrap();
        assert!(Arc::ptr_eq(&m0, &again));

        // The cold records never leave.
        assert_eq!(reg.len(), 3);
        assert!(reg.get("m1").is_some());
    }

    #[test]
    fn hot_model_caches_prefix_tables_per_table() {
        let mut reg = ModelRegistry::new();
        reg.insert(ModelArtifact::builtin_manual()).unwrap();
        let hot = reg.touch("table5-manual").unwrap();
        let rows: Vec<Vec<f64>> = (0..70)
            .map(|t| vec![t as f64, 20.0 + t as f64 * 0.01, 1.0, 8.0, 1.5, 0.2])
            .collect();
        let p1 = hot.prefix_for("target", &rows);
        let p2 = hot.prefix_for("target", &rows);
        assert!(Arc::ptr_eq(&p1, &p2), "same table reuses the sweep");
        if hot.system.n_pre() > 0 {
            assert_eq!(p1.rows(), rows.len());
            assert!(hot.prefix_bytes() > 0);
            // A shorter horizon shares the full-table sweep.
            let p3 = hot.prefix_for("target", &rows[..10]);
            assert!(Arc::ptr_eq(&p1, &p3));
        }
        // Eviction drops the prefix cache with the hot record.
        let mut a = ModelArtifact::builtin_manual();
        a.name = "other".into();
        reg.insert(a).unwrap();
        reg.set_hot_cap(1);
        let hot2 = reg.touch("table5-manual").unwrap();
        assert!(!Arc::ptr_eq(&hot, &hot2), "eviction forced a recompile");
        assert_eq!(hot2.prefix_bytes(), 0, "prefix cache did not survive");
    }

    #[test]
    fn corrupted_bytecode_is_refused_and_journaled() {
        use gmr_expr::{RInstr, RegProgram};
        gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
        let good = ModelArtifact::builtin_manual();
        let eqs = good.parse_equations().unwrap();
        let sys = CompiledSystem::compile_checked(
            &eqs,
            good.vars.len(),
            good.states.len(),
            Tier::Threaded,
        )
        .unwrap();
        let mut reg = ModelRegistry::new();

        // Corruption 1: a state-dependent instruction moved into the
        // hoisted prefix — the columnar sweep would freeze its value.
        let mut code = sys.prefix().instructions().to_vec();
        let dst = code.last().expect("manual system hoists a prefix").dst();
        code.push(RInstr::LoadState { dst, idx: 0 });
        let corrupt_prefix = CompiledSystem::from_raw_parts(
            RegProgram::from_raw_unchecked(
                code,
                sys.prefix().consts().to_vec(),
                0,
                sys.prefix().n_regs() as u16,
                sys.prefix().outputs().to_vec(),
                sys.prefix().needs_vars(),
                0,
            ),
            sys.core().clone(),
            sys.n_eqs(),
            sys.tier(),
        );
        let mut art = good.clone();
        art.name = "corrupt-prefix".into();
        let err = reg.insert_prepared(art, corrupt_prefix);
        assert!(
            matches!(err, Err(RegistryError::Bytecode { .. })),
            "{err:?}"
        );

        // Corruption 2: an out-of-bounds register index — exactly what the
        // VM's `get_unchecked` fast path must never see.
        let mut code = sys.core().instructions().to_vec();
        let oob = sys.core().n_regs() as u16 + 7;
        code[0] = RInstr::LoadVar { dst: oob, idx: 0 };
        let corrupt_core = CompiledSystem::from_raw_parts(
            sys.prefix().clone(),
            RegProgram::from_raw_unchecked(
                code,
                sys.core().consts().to_vec(),
                sys.core().n_pre() as u16,
                sys.core().n_regs() as u16,
                sys.core().outputs().to_vec(),
                sys.core().needs_vars(),
                sys.core().needs_states(),
            ),
            sys.n_eqs(),
            sys.tier(),
        );
        let mut art = good.clone();
        art.name = "corrupt-oob".into();
        let err = reg.insert_prepared(art, corrupt_core);
        match err {
            Err(RegistryError::Bytecode { errors, report, .. }) => {
                assert!(errors > 0);
                assert!(report.contains("unsafe-bound-unproved"), "{report}");
            }
            other => panic!("expected Bytecode refusal, got {other:?}"),
        }
        assert!(reg.is_empty(), "no corrupted artifact may be admitted");

        // Both refusals are journaled as Error-carrying serve.lint notes.
        let notes: Vec<String> = gmr_obsv::global()
            .expect("journal installed")
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                gmr_obsv::Event::Note {
                    name: "serve.lint",
                    msg,
                } => Some(msg.clone()),
                _ => None,
            })
            .collect();
        for model in ["corrupt-prefix", "corrupt-oob"] {
            assert!(
                notes
                    .iter()
                    .any(|m| m.contains(model) && m.contains("failed")),
                "no failed serve.lint note for {model}: {notes:?}"
            );
        }

        // The untampered compilation still passes the same gate.
        reg.insert_prepared(good, sys).unwrap();
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn fidelity_policy_gates_admission_and_is_reported() {
        // Default registry: bit-exact; the served tier is the fastest
        // bit-exact tier and /models says so.
        let mut reg = ModelRegistry::new();
        reg.insert(ModelArtifact::builtin_manual()).unwrap();
        let m = reg.touch("table5-manual").unwrap();
        assert_eq!(m.system.tier(), Tier::fastest(FidelityPolicy::BitExact));
        assert_eq!(m.system.fidelity().name(), "bit-exact");
        let json = reg.render_json();
        assert!(json.contains("\"tier\": \"threaded\""), "{json}");
        assert!(json.contains("\"fidelity\": \"bit-exact\""), "{json}");

        // A relaxed-SIMD compilation is refused by a bit-exact registry —
        // but only where SIMD kernels are actually live; otherwise the
        // simd tier *is* bit-exact and admission is correct.
        let good = ModelArtifact::builtin_manual();
        let eqs = good.parse_equations().unwrap();
        let simd_sys =
            CompiledSystem::compile_checked(&eqs, good.vars.len(), good.states.len(), Tier::Simd)
                .unwrap();
        let mut reg = ModelRegistry::new();
        let relaxed = simd_sys.fidelity() == gmr_expr::Fidelity::RelaxedSimd;
        let res = reg.insert_prepared(good, simd_sys);
        if relaxed {
            assert!(
                matches!(res, Err(RegistryError::Fidelity { .. })),
                "{res:?}"
            );
            assert!(reg.is_empty());
        } else {
            res.unwrap();
        }

        // An allow-relaxed registry admits it either way.
        let mut reg = ModelRegistry::with_policy(FidelityPolicy::AllowRelaxed);
        reg.insert(ModelArtifact::builtin_manual()).unwrap();
        let m = reg.touch("table5-manual").unwrap();
        assert_eq!(m.system.tier(), Tier::fastest(FidelityPolicy::AllowRelaxed));
    }

    #[test]
    fn bare_parameter_past_the_priors_is_refused_not_a_panic() {
        // A parameter past the 17 river priors, named without `[value]`.
        let mut a = ModelArtifact::builtin_manual();
        a.params.push("CXTRA".into());
        a.equations[0] = format!("{} + CXTRA", a.equations[0]);
        let mut reg = ModelRegistry::new();
        let err = reg.insert(a);
        assert!(
            matches!(
                err,
                Err(RegistryError::Artifact(ArtifactError::Equation { .. }))
            ),
            "{err:?}"
        );
        assert!(reg.is_empty());
    }

    #[test]
    fn duplicate_names_are_refused() {
        let mut reg = ModelRegistry::new();
        reg.insert(ModelArtifact::builtin_manual()).unwrap();
        assert!(matches!(
            reg.insert(ModelArtifact::builtin_manual()),
            Err(RegistryError::Duplicate(_))
        ));
    }

    #[test]
    fn lint_error_rejects_admission() {
        // An equation indexing Var(99) is an arity Error under every
        // policy: parse succeeds (we hand-author the text), lint rejects.
        let mut a = ModelArtifact::builtin_manual();
        a.name = "broken".into();
        // A var name that exists in the table but with a state index out
        // of range is hard to author via text, so instead reference an
        // undefined identifier — that fails at parse, which surfaces as
        // an Artifact error; admission must refuse either way.
        a.equations[0] = "NoSuchVar * BPhy".into();
        let mut reg = ModelRegistry::new();
        assert!(matches!(
            reg.insert(a),
            Err(RegistryError::Artifact(ArtifactError::Equation { .. }))
        ));
        // And a schema whose var list is too short makes a *valid* parse
        // lint/compile-fail: drop the last var names so indices overflow.
        let mut b = ModelArtifact::builtin_manual();
        b.name = "short-schema".into();
        b.vars.truncate(2);
        let err = reg.insert(b);
        assert!(
            matches!(
                err,
                Err(RegistryError::Artifact(_)) | Err(RegistryError::Lint { .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn load_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("gmr-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let art = ModelArtifact::builtin_manual();
        art.save(dir.join("table5-manual.json")).unwrap();
        std::fs::write(dir.join("README.txt"), "not an artifact").unwrap();
        let mut reg = ModelRegistry::new();
        assert_eq!(reg.load_dir(&dir).unwrap(), 1);
        assert!(reg.get("table5-manual").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
