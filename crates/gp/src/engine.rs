//! The generational TAG3P engine.
//!
//! One generation (the red loop of Fig. 5): evaluate the population, select
//! parents by tournament, produce a revised population with the genetic
//! operators (probabilities from the paper's Appendix B), run stochastic
//! hill-climbing local search on each offspring, and carry the elite over.
//! The three §III-D speed-ups — tree caching, evaluation short-circuiting
//! and runtime compilation — are independent switches in [`GpConfig`], which
//! is exactly what the Fig. 10 experiment toggles.
//!
//! Determinism: a run — its fitness trajectory and every counter — is a
//! pure function of the seed for **any** `threads` value. Per-individual
//! RNG streams are derived from the candidate index, and the coordinating
//! thread alone owns the search state candidates share: the tree cache and
//! the short-circuiting baseline (`bestPrevFull`). An evaluation round
//! looks every cache key up in candidate order, the pool evaluates each
//! distinct miss once as a pure job against the round's baseline snapshot,
//! and the coordinator records every result in candidate order. Thread
//! interleaving can change *which worker* runs a job, never what a job
//! computes or what the search records. See DESIGN.md, "Evaluation pool &
//! determinism contract".

use crate::cache::{hit_rate, CachedFitness, IdentityHasher, TreeCache};
use crate::individual::Individual;
use crate::operators::{
    crossover, deletion, gaussian_mutation_partial, insertion, param_tweak, subtree_mutation,
    DEFAULT_RETRIES,
};
use crate::phenotype::Phenotype;
use crate::pool::{with_pool, EvalPool, PoolStats};
use crate::priors::ParamPriors;
use crate::short_circuit::{EsController, EsOutcome, Extrapolate};
use gmr_expr::{simplify, Expr};
use gmr_obsv::metrics::{Counter, Registry, Sample};
use gmr_obsv::Event;
use gmr_tag::lower::{lower, lower_system};
use gmr_tag::{DerivTree, Grammar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A fitness problem. Implementations integrate the lowered equation system
/// over their fitness cases, reporting the running fitness to `ctl` at
/// checkpoints; `ctl` returning `false` aborts (short-circuit).
pub trait Evaluator: Sync {
    /// Number of equations the derivation's root encodes (2 for the river
    /// system; 1 for single-equation problems).
    fn num_equations(&self) -> usize;
    /// Number of fitness cases (time steps).
    fn num_cases(&self) -> usize;
    /// Evaluate a derived phenotype; returns `(fitness, fully_evaluated)`.
    ///
    /// When [`Phenotype::compiled`] is `Some`, the engine compiled the
    /// system once per genotype and the implementation should run the
    /// bytecode instead of interpreting [`Phenotype::eqs`].
    fn evaluate(&self, ph: &Phenotype, ctl: &mut dyn FnMut(f64, usize) -> bool) -> (f64, bool);

    /// Evaluate a group of phenotypes — one claimed chunk of an evaluation
    /// round — member `i` under `ctl(i, running, done)`; returns each
    /// member's `(fitness, fully_evaluated)`. Each result must equal what
    /// [`Self::evaluate`] returns for that member alone, so an
    /// implementation may only share work between members, never change
    /// a result. The default evaluates the members one by one.
    fn evaluate_group(
        &self,
        phs: &[&Phenotype],
        ctl: &mut dyn FnMut(usize, f64, usize) -> bool,
    ) -> Vec<(f64, bool)> {
        phs.iter()
            .enumerate()
            .map(|(i, ph)| self.evaluate(ph, &mut |running, done| ctl(i, running, done)))
            .collect()
    }
}

/// Engine configuration. Defaults are the paper's Appendix B settings.
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Population size (paper: 200).
    pub pop_size: usize,
    /// Number of generations (paper: 100).
    pub max_gen: usize,
    /// Minimum chromosome (derivation-tree) size (paper: 2).
    pub min_size: usize,
    /// Maximum chromosome size (paper: 50).
    pub max_size: usize,
    /// Tournament size (paper: 5).
    pub tournament: usize,
    /// Elite size (paper: 2).
    pub elite: usize,
    /// Crossover probability (paper: 0.3).
    pub p_crossover: f64,
    /// Subtree-mutation probability (paper: 0.3).
    pub p_subtree_mut: f64,
    /// Gaussian-mutation probability (paper: 0.3; the remaining mass is
    /// replication).
    pub p_gauss_mut: f64,
    /// Per-constant resample probability inside Gaussian mutation. The
    /// paper resamples every constant (1.0); the default 0.3 is a
    /// coordinate-wise walk that needs far fewer evaluations to calibrate
    /// (documented deviation; see DESIGN.md).
    pub p_param_each: f64,
    /// Draw the initial population's constants from the truncated-Gaussian
    /// priors instead of pinning them at the means. §III-B3 assumes
    /// naturally occurring values follow that prior; sampling it at
    /// initialisation diversifies generation zero.
    pub init_params_from_prior: bool,
    /// Local-search steps per offspring (paper: 5).
    pub local_search_steps: usize,
    /// Include fine-grained single-constant tweaks among the local-search
    /// moves (alongside the paper's insertion/deletion). Essential at small
    /// evaluation budgets; see DESIGN.md.
    pub ls_param_tweak: bool,
    /// Evaluation short-circuiting threshold; `None` disables ES.
    pub es_threshold: Option<f64>,
    /// ES extrapolation method. `Optimistic` (the default) only stops
    /// evaluations that *cannot* beat the baseline even with a perfect
    /// remaining suffix — immune to transient running-RMSE spikes;
    /// `RunningRmse` is the paper's eager variant (Fig. 11 sweeps its
    /// threshold).
    pub extrapolate: Extrapolate,
    /// Tree caching on/off.
    pub use_cache: bool,
    /// Runtime compilation (bytecode VM) on/off.
    pub use_compiled: bool,
    /// Total cache entry budget.
    pub cache_capacity: usize,
    /// Ramp the Gaussian-mutation σ down linearly over the final k
    /// generations (§III-B3).
    pub sigma_ramp_last: usize,
    /// σ scale reached at the final generation.
    pub sigma_floor: f64,
    /// Worker threads for fitness evaluation (1 = fully deterministic).
    pub threads: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            pop_size: 200,
            max_gen: 100,
            min_size: 2,
            max_size: 50,
            tournament: 5,
            elite: 2,
            p_crossover: 0.3,
            p_subtree_mut: 0.3,
            p_gauss_mut: 0.3,
            p_param_each: 0.3,
            init_params_from_prior: true,
            local_search_steps: 5,
            ls_param_tweak: true,
            es_threshold: Some(1.0),
            extrapolate: Extrapolate::Optimistic,
            use_cache: true,
            use_compiled: true,
            cache_capacity: 1 << 18,
            sigma_ramp_last: 20,
            sigma_floor: 0.1,
            threads: 1,
            seed: 0,
        }
    }
}

/// Per-generation progress record.
#[derive(Debug, Clone, Copy)]
pub struct GenStats {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// Best fitness in the population.
    pub best: f64,
    /// Mean finite fitness.
    pub mean: f64,
    /// Cumulative fitness evaluations so far.
    pub evaluations: u64,
    /// Cumulative integrated time steps so far.
    pub evaluated_steps: u64,
    /// Wall time of this generation.
    pub elapsed: Duration,
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The best individual found (fully re-evaluated).
    pub best: Individual,
    /// Per-generation statistics.
    pub history: Vec<GenStats>,
    /// Total fitness evaluations (cache hits excluded).
    pub evaluations: u64,
    /// Total integrated time steps (the Fig. 11 "# evaluated time steps").
    pub evaluated_steps: u64,
    /// Evaluations that ran to completion.
    pub full_evaluations: u64,
    /// Evaluations stopped by short-circuiting.
    pub short_circuited: u64,
    /// Final cache hit rate.
    pub cache_hit_rate: f64,
    /// Tree-cache hits.
    pub cache_hits: u64,
    /// Tree-cache misses.
    pub cache_misses: u64,
    /// Phenotypes derived (lower + simplify + hash, plus compile when
    /// runtime compilation is on).
    pub pheno_builds: u64,
    /// Evaluations that reused a memoised phenotype instead of re-deriving.
    pub pheno_reuses: u64,
    /// Register-VM equations compiled (one per equation per build when
    /// runtime compilation is on; equations of one system compile together
    /// so cross-equation CSE can share work).
    pub compiles: u64,
    /// Evaluation-pool statistics: per-worker candidates, claims, busy and
    /// idle time.
    pub pool: PoolStats,
    /// Fraction of the final population's top ten whose recorded fitness
    /// came from a full evaluation (Fig. 11's "% fully evaluated among
    /// best").
    pub top_full_fraction: f64,
    /// Snapshot of the engine's metric registry at the end of the run —
    /// the same counters the scalar fields above are read from, plus
    /// whatever else was registered during the run.
    pub metrics: Vec<(String, Sample)>,
}

impl RunReport {
    /// The generation at which the champion's fitness was first reached —
    /// the earliest history entry whose per-generation best matches the
    /// final best. Artifact provenance records this so a served model can
    /// be traced to the point in the run that produced it.
    pub fn champion_generation(&self) -> u64 {
        self.history
            .iter()
            .find(|g| g.best <= self.best.fitness)
            .map(|g| g.generation as u64)
            .unwrap_or(self.history.len().saturating_sub(1) as u64)
    }

    /// The per-generation history as CSV (`generation,best,mean,evaluations,
    /// evaluated_steps,elapsed_ms`) — convenient for plotting convergence
    /// curves without further tooling.
    pub fn history_csv(&self) -> String {
        let mut out = String::from("generation,best,mean,evaluations,evaluated_steps,elapsed_ms\n");
        for g in &self.history {
            out.push_str(&format!(
                "{},{},{},{},{},{:.3}\n",
                g.generation,
                g.best,
                g.mean,
                g.evaluations,
                g.evaluated_steps,
                g.elapsed.as_secs_f64() * 1e3,
            ));
        }
        out
    }

    /// The full report as a JSON object: champion summary, the §III-D
    /// counters, per-worker pool accounting, the metric-registry snapshot
    /// and the per-generation history. Written next to each experiment's
    /// CSV output so runs stay machine-inspectable after the process exits.
    pub fn to_json(&self) -> String {
        use gmr_obsv::json::{push_escaped, push_f64};
        let mut o = String::from("{\n  \"best\": {\"fitness\": ");
        push_f64(&mut o, self.best.fitness);
        o.push_str(&format!(
            ", \"size\": {}, \"fully_evaluated\": {}, \"origin\": ",
            self.best.tree.size(),
            self.best.fully_evaluated
        ));
        push_escaped(&mut o, self.best.origin);
        o.push_str("},\n");
        o.push_str(&format!(
            "  \"evaluations\": {}, \"evaluated_steps\": {}, \"full_evaluations\": {}, \"short_circuited\": {},\n",
            self.evaluations, self.evaluated_steps, self.full_evaluations, self.short_circuited
        ));
        o.push_str("  \"cache_hit_rate\": ");
        push_f64(&mut o, self.cache_hit_rate);
        o.push_str(&format!(
            ", \"cache_hits\": {}, \"cache_misses\": {},\n  \"pheno_builds\": {}, \"pheno_reuses\": {}, \"compiles\": {},\n",
            self.cache_hits, self.cache_misses, self.pheno_builds, self.pheno_reuses, self.compiles
        ));
        o.push_str("  \"top_full_fraction\": ");
        push_f64(&mut o, self.top_full_fraction);
        o.push_str(&format!(
            ",\n  \"pool\": {{\"rounds\": {}, \"workers\": [",
            self.pool.rounds
        ));
        for (i, w) in self.pool.workers.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str(&format!(
                "{{\"worker\": {}, \"candidates\": {}, \"claims\": {}, \"busy_ms\": {:.3}, \"idle_ms\": {:.3}}}",
                w.worker,
                w.candidates,
                w.claims,
                w.busy.as_secs_f64() * 1e3,
                w.idle.as_secs_f64() * 1e3
            ));
        }
        o.push_str("]},\n  \"metrics\": ");
        o.push_str(&gmr_obsv::metrics::snapshot_json(&self.metrics));
        o.push_str(",\n  \"history\": [");
        for (i, g) in self.history.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str(&format!("{{\"generation\": {}, \"best\": ", g.generation));
            push_f64(&mut o, g.best);
            o.push_str(", \"mean\": ");
            push_f64(&mut o, g.mean);
            o.push_str(&format!(
                ", \"evaluations\": {}, \"evaluated_steps\": {}, \"elapsed_ms\": {:.3}}}",
                g.evaluations,
                g.evaluated_steps,
                g.elapsed.as_secs_f64() * 1e3
            ));
        }
        o.push_str("]\n}\n");
        o
    }
}

/// A per-generation invariant check over the elite: called after each
/// generation's survivor selection with the generation index, an elite
/// genotype and its lowered (simplified) phenotype. Used by `gmr-core` to
/// run the `gmr-lint` battery over whatever the search currently believes in
/// — a static-analysis tripwire for search-layer bugs (constants escaping
/// their priors, lexemes the grammar should never have produced).
pub type InvariantHook<'a> = Box<dyn Fn(usize, &DerivTree, &[Expr]) + Sync + 'a>;

/// The TAG3P engine.
pub struct Engine<'a, E: Evaluator> {
    grammar: &'a Grammar,
    evaluator: &'a E,
    priors: ParamPriors,
    cfg: GpConfig,
    /// Taken only by the coordinating thread, between pool rounds.
    state: Mutex<SearchState>,
    invariant_hook: Option<InvariantHook<'a>>,
    /// The engine's metric sheet. The counters below are registered in it
    /// under `engine.*` names, so one snapshot carries everything the
    /// scalar `RunReport` fields report (plus anything registered later).
    metrics: Registry,
    evals: Arc<Counter>,
    steps: Arc<Counter>,
    fulls: Arc<Counter>,
    shorts: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    pheno_builds: Arc<Counter>,
    pheno_reuses: Arc<Counter>,
    compiles: Arc<Counter>,
}

/// The search state candidates share: the fitness cache and the
/// short-circuiting baseline `bestPrevFull` (the best fitness any full
/// evaluation produced). Only the coordinating thread reads or writes it,
/// before and after each pool round, so it never depends on the thread
/// count.
struct SearchState {
    cache: TreeCache,
    best_prev_full: f64,
}

/// Where one candidate's result in an evaluation round comes from.
#[derive(Clone, Copy)]
enum Slot {
    /// A cache hit: `(fitness, fully_evaluated)`.
    Cached(f64, bool),
    /// `jobs[i]` of the round — a miss, or a duplicate of one pending.
    Job(usize),
}

/// One distinct phenotype an evaluation round simulates.
struct Job<'p> {
    ph: &'p Phenotype,
    /// `(fitness, fully_evaluated)` once the pool has run the job.
    result: (f64, bool),
}

/// One local-search move awaiting its score.
struct Proposal {
    idx: usize,
    tree: DerivTree,
    origin: &'static str,
    ph: Option<Phenotype>,
}

/// Cumulative counter values at a generation boundary; consecutive
/// snapshots give the per-generation deltas reported in `gen` journal
/// events.
#[derive(Clone, Copy, Default)]
struct CounterSnap {
    evals: u64,
    fulls: u64,
    shorts: u64,
    hits: u64,
    misses: u64,
}

fn mix_seed(master: u64, gen: u64, idx: u64) -> u64 {
    let mut x = master ^ gen.rotate_left(17) ^ idx.rotate_left(41) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl<'a, E: Evaluator> Engine<'a, E> {
    /// Assemble an engine.
    pub fn new(grammar: &'a Grammar, evaluator: &'a E, priors: ParamPriors, cfg: GpConfig) -> Self {
        let state = Mutex::new(SearchState {
            cache: TreeCache::new(cfg.cache_capacity),
            best_prev_full: f64::INFINITY,
        });
        let metrics = Registry::new();
        let evals = metrics.counter("engine.evals");
        let steps = metrics.counter("engine.steps");
        let fulls = metrics.counter("engine.full_evals");
        let shorts = metrics.counter("engine.short_circuits");
        let cache_hits = metrics.counter("engine.cache_hits");
        let cache_misses = metrics.counter("engine.cache_misses");
        let pheno_builds = metrics.counter("engine.pheno_builds");
        let pheno_reuses = metrics.counter("engine.pheno_reuses");
        let compiles = metrics.counter("engine.compiles");
        Engine {
            grammar,
            evaluator,
            priors,
            cfg,
            state,
            invariant_hook: None,
            metrics,
            evals,
            steps,
            fulls,
            shorts,
            cache_hits,
            cache_misses,
            pheno_builds,
            pheno_reuses,
            compiles,
        }
    }

    /// The engine's metric registry — counters/gauges/histograms
    /// snapshotted into every [`RunReport`]. Callers may register their own
    /// instruments here before [`Self::run`].
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The configuration in force.
    pub fn config(&self) -> &GpConfig {
        &self.cfg
    }

    /// Install a per-generation elite invariant check (see [`InvariantHook`]).
    /// Must be called before [`Self::run`]; the hook observes every recorded
    /// generation, including generation zero.
    pub fn set_invariant_hook(&mut self, hook: impl Fn(usize, &DerivTree, &[Expr]) + Sync + 'a) {
        self.invariant_hook = Some(Box::new(hook));
    }

    /// Run the installed invariant hook over the current elite.
    fn check_invariants(&self, gen: usize, pop: &[Individual]) {
        let Some(hook) = &self.invariant_hook else {
            return;
        };
        for ind in pop.iter().take(self.cfg.elite.max(1)) {
            // Corrupted genotypes already carry lethal fitness; the hook
            // only sees what actually lowers. The elite's memoised
            // phenotype makes this a lookup, not a re-derivation.
            if let Some(ph) = &ind.pheno {
                hook(gen, &ind.tree, ph.eqs());
            } else if let Ok(eqs) = self.phenotype(&ind.tree) {
                hook(gen, &ind.tree, &eqs);
            }
        }
    }

    /// Lower a genotype to its (simplified) equation system.
    pub fn phenotype(&self, tree: &DerivTree) -> Result<Vec<Expr>, gmr_tag::LowerError> {
        let derived = tree.derived(self.grammar);
        let eqs = if self.evaluator.num_equations() == 1 {
            vec![lower(&derived)?]
        } else {
            lower_system(&derived, self.evaluator.num_equations())?
        };
        Ok(eqs.iter().map(simplify).collect())
    }

    /// Derive the full phenotype (lower + simplify + hash + compile),
    /// updating the build counters.
    fn build_phenotype(&self, tree: &DerivTree) -> Result<Phenotype, gmr_tag::LowerError> {
        let eqs = self.phenotype(tree)?;
        self.pheno_builds.inc();
        if self.cfg.use_compiled {
            self.compiles.add(eqs.len() as u64);
        }
        Ok(Phenotype::build(eqs, self.cfg.use_compiled))
    }

    /// The individual's memoised phenotype, deriving (and storing) it on
    /// first use. `None` for corrupted genotypes that fail to lower.
    fn ensure_phenotype(&self, ind: &mut Individual) -> Option<Arc<Phenotype>> {
        if let Some(ph) = &ind.pheno {
            self.pheno_reuses.inc();
            return Some(Arc::clone(ph));
        }
        let ph = Arc::new(self.build_phenotype(&ind.tree).ok()?);
        ind.pheno = Some(Arc::clone(&ph));
        Some(ph)
    }

    fn state(&self) -> MutexGuard<'_, SearchState> {
        // Held only for a lookup or a record, never while a task runs.
        self.state
            .lock()
            .expect("no engine code panics holding the search state")
    }

    /// Round step 1, on the coordinator: sort each candidate, in order,
    /// into a cache hit, a duplicate of a job already pending in this round
    /// (also a hit, sharing that job), or a miss that becomes a new job.
    /// With caching off every candidate is a job of its own.
    fn lookup<'p>(&self, phenos: &[&'p Phenotype]) -> (Vec<Slot>, Vec<Job<'p>>) {
        let mut jobs = Vec::new();
        let mut new_job = |ph| {
            jobs.push(Job {
                ph,
                result: (f64::NAN, false),
            });
            Slot::Job(jobs.len() - 1)
        };
        if !self.cfg.use_cache {
            let slots = phenos.iter().map(|&ph| new_job(ph)).collect();
            return (slots, jobs);
        }
        let state = self.state();
        let mut pending: HashMap<_, _, BuildHasherDefault<IdentityHasher>> = HashMap::default();
        let slots = phenos
            .iter()
            .map(|&ph| match state.cache.get(ph.key()) {
                Some(hit) => Slot::Cached(hit.fitness, hit.full),
                None => *pending.entry(ph.key()).or_insert_with(|| new_job(ph)),
            })
            .collect::<Vec<_>>();
        self.cache_misses.add(jobs.len() as u64);
        self.cache_hits.add((slots.len() - jobs.len()) as u64);
        (slots, jobs)
    }

    /// Round step 2, one claimed chunk of pool jobs: simulate their
    /// phenotypes as one group under the short-circuiting controller
    /// against `baseline`, and store each job's
    /// `(fitness, fully_evaluated)`.
    ///
    /// Each result is a pure function of `(phenotype, baseline)` — the
    /// only writes are the atomic work counters, and the group only
    /// shares work between its members — which is what lets the pool run
    /// jobs on any worker, in any order and in any chunk.
    fn simulate(&self, jobs: &mut [Job], baseline: f64) {
        let es = match self.cfg.es_threshold {
            Some(th) => EsController {
                threshold: th,
                best_prev_full: baseline,
                extrapolate: self.cfg.extrapolate,
            },
            None => EsController::disabled(),
        };
        let total = self.evaluator.num_cases();
        let mut last_done = vec![0usize; jobs.len()];
        let mut ctl = |i: usize, running: f64, done: usize| -> bool {
            last_done[i] = done;
            match es.check(running, done, total) {
                EsOutcome::Continue => true,
                EsOutcome::Stop(_) => false,
            }
        };
        let phs: Vec<&Phenotype> = jobs.iter().map(|job| job.ph).collect();
        let results = {
            let _sp = gmr_obsv::span_fine!("vm.simulate", jobs.len() as u64);
            self.evaluator.evaluate_group(&phs, &mut ctl)
        };
        assert_eq!(results.len(), jobs.len(), "one result per group member");

        for ((job, (fitness, full)), done) in jobs.iter_mut().zip(results).zip(last_done) {
            self.evals.inc();
            if full {
                self.steps.add(total as u64);
                self.fulls.inc();
            } else {
                self.steps.add(done as u64);
                self.shorts.inc();
            }
            job.result = (fitness, full);
        }
    }

    /// Round step 3, on the coordinator: record every job's result in
    /// candidate order — the cache insert, and the baseline update for full
    /// results — cut the cache back to budget, and return each candidate's
    /// `(fitness, fully_evaluated)`.
    fn record(&self, slots: &[Slot], jobs: &[Job]) -> Vec<(f64, bool)> {
        let mut state = self.state();
        for job in jobs {
            let (fitness, full) = job.result;
            // `<` is false for a NaN from a misbehaving evaluator, which
            // therefore cannot poison the baseline.
            if full && fitness < state.best_prev_full {
                state.best_prev_full = fitness;
            }
            if self.cfg.use_cache {
                state
                    .cache
                    .insert(job.ph.key(), CachedFitness { fitness, full });
            }
        }
        state.cache.evict_to_budget();
        slots
            .iter()
            .map(|&slot| match slot {
                Slot::Cached(fitness, full) => (fitness, full),
                Slot::Job(j) => jobs[j].result,
            })
            .collect()
    }

    /// Score derived phenotypes, given in candidate order, against one
    /// baseline snapshot: look up on the coordinator, evaluate each
    /// distinct miss once on the pool — each claimed chunk as one group —
    /// and record on the coordinator.
    fn evaluate_round(
        &self,
        pool: &EvalPool,
        phenos: &[&Phenotype],
        baseline: f64,
    ) -> Vec<(f64, bool)> {
        let (slots, mut jobs) = self.lookup(phenos);
        pool.for_each_chunk_mut(&mut jobs, |_, chunk| self.simulate(chunk, baseline));
        self.record(&slots, &jobs)
    }

    /// Evaluate one genotype with whichever §III-D techniques are enabled —
    /// Fig. 10's sequential path: a one-candidate round, run inline against
    /// the live short-circuiting baseline. Returns
    /// `(fitness, fully_evaluated)`.
    pub fn evaluate_tree(&self, tree: &DerivTree) -> (f64, bool) {
        let Ok(ph) = self.build_phenotype(tree) else {
            // Grammar-generated trees always lower; a failure here is a
            // corrupted genotype — lethal fitness, never a crash.
            return (f64::INFINITY, true);
        };
        let baseline = self.state().best_prev_full;
        with_pool(1, |pool| self.evaluate_round(pool, &[&ph], baseline)).0[0]
    }

    fn counter_snap(&self) -> CounterSnap {
        CounterSnap {
            evals: self.evals.get(),
            fulls: self.fulls.get(),
            shorts: self.shorts.get(),
            hits: self.cache_hits.get(),
            misses: self.cache_misses.get(),
        }
    }

    /// Journal one generation's statistics with counter deltas since the
    /// previous boundary. Pure observation — reads counters, never fitness
    /// state.
    fn emit_gen_event(&self, gs: &GenStats, prev: &mut CounterSnap) {
        let cur = self.counter_snap();
        if gmr_obsv::enabled() {
            gmr_obsv::emit(Event::Gen {
                seed: self.cfg.seed,
                generation: gs.generation as u64,
                best: gs.best,
                mean: gs.mean,
                evaluations: gs.evaluations,
                steps: gs.evaluated_steps,
                elapsed_us: gs.elapsed.as_micros() as u64,
                d_evals: cur.evals - prev.evals,
                d_fulls: cur.fulls - prev.fulls,
                d_shorts: cur.shorts - prev.shorts,
                d_cache_hits: cur.hits - prev.hits,
                d_cache_misses: cur.misses - prev.misses,
            });
        }
        *prev = cur;
    }

    /// Journal an elite change (strict improvement of the population's
    /// best), carrying the revision operator that produced the new elite.
    fn emit_elite_event(&self, gen: usize, pop: &[Individual], prev_best: &mut f64) {
        let Some(best) = pop.first() else { return };
        if best.fitness < *prev_best {
            *prev_best = best.fitness;
            if gmr_obsv::enabled() {
                gmr_obsv::emit(Event::EliteChange {
                    seed: self.cfg.seed,
                    generation: gen as u64,
                    fitness: best.fitness,
                    size: best.tree.size() as u64,
                    origin: best.origin,
                });
            }
        }
    }

    /// Journal the pool's cumulative accounting at a round boundary — the
    /// mid-run visibility the shutdown-only stats collection used to lack.
    fn emit_round_event(&self, pool: &EvalPool, kind: &'static str, len: usize) {
        if !gmr_obsv::enabled() {
            return;
        }
        let snap = pool.snapshot();
        gmr_obsv::emit(Event::Round {
            seed: self.cfg.seed,
            round: snap.rounds,
            kind,
            len: len as u64,
            workers: snap.workers.len() as u64,
            candidates: snap.total_candidates(),
            busy_us: snap.total_busy().as_micros() as u64,
            idle_us: snap.total_idle().as_micros() as u64,
        });
    }

    /// Derive the unevaluated individuals' phenotypes in one pool round,
    /// then score them in one evaluation round.
    fn evaluate_population(&self, pool: &EvalPool, pop: &mut [Individual]) {
        // Every candidate in the round sees the same baseline snapshot,
        // whichever worker runs it — the determinism contract.
        let baseline = self.state().best_prev_full;
        let mut todo: Vec<&mut Individual> =
            pop.iter_mut().filter(|i| i.fitness.is_infinite()).collect();
        pool.for_each_mut(&mut todo, |_, ind| {
            self.ensure_phenotype(ind);
        });
        let scores = {
            let phenos: Vec<&Phenotype> = todo.iter().filter_map(|i| i.pheno.as_deref()).collect();
            self.evaluate_round(pool, &phenos, baseline)
        };
        let mut scores = scores.into_iter();
        for ind in todo {
            // A genotype that failed to lower is corrupted: lethal fitness.
            (ind.fitness, ind.fully_evaluated) = match ind.pheno {
                Some(_) => scores.next().expect("one score per phenotype"),
                None => (f64::INFINITY, true),
            };
        }
    }

    fn tournament<'p, R: Rng>(&self, pop: &'p [Individual], rng: &mut R) -> &'p Individual {
        let mut best = &pop[rng.gen_range(0..pop.len())];
        for _ in 1..self.cfg.tournament.max(1) {
            let cand = &pop[rng.gen_range(0..pop.len())];
            if cand.fitness < best.fitness {
                best = cand;
            }
        }
        best
    }

    fn sigma_scale(&self, gen: usize) -> f64 {
        let k = self.cfg.sigma_ramp_last.min(self.cfg.max_gen);
        if k == 0 || gen + k < self.cfg.max_gen {
            return 1.0;
        }
        // Linear ramp from 1.0 (at max_gen - k) down to sigma_floor.
        let into = gen + k + 1 - self.cfg.max_gen;
        let t = into as f64 / k as f64;
        1.0 + t * (self.cfg.sigma_floor - 1.0)
    }

    fn breed<R: Rng>(&self, pop: &[Individual], rng: &mut R, sigma: f64) -> Vec<Individual> {
        let n = self.cfg.pop_size.saturating_sub(self.cfg.elite);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let roll: f64 = rng.gen();
            let (c, s, g) = (
                self.cfg.p_crossover,
                self.cfg.p_subtree_mut,
                self.cfg.p_gauss_mut,
            );
            if roll < c {
                let mut a = self.tournament(pop, rng).clone();
                let mut b = self.tournament(pop, rng).clone();
                if crossover(
                    &mut a.tree,
                    &mut b.tree,
                    self.grammar,
                    rng,
                    self.cfg.min_size,
                    self.cfg.max_size,
                    DEFAULT_RETRIES,
                ) {
                    a.invalidate();
                    b.invalidate();
                    a.origin = "crossover";
                    b.origin = "crossover";
                }
                out.push(a);
                if out.len() < n {
                    out.push(b);
                }
            } else if roll < c + s {
                let mut a = self.tournament(pop, rng).clone();
                if subtree_mutation(
                    &mut a.tree,
                    self.grammar,
                    rng,
                    self.cfg.max_size,
                    DEFAULT_RETRIES,
                ) {
                    a.invalidate();
                    a.origin = "subtree-mut";
                }
                out.push(a);
            } else if roll < c + s + g {
                let mut a = self.tournament(pop, rng).clone();
                gaussian_mutation_partial(
                    &mut a.tree,
                    self.grammar,
                    &self.priors,
                    sigma,
                    self.cfg.p_param_each,
                    rng,
                );
                a.invalidate();
                a.origin = "gauss-mut";
                out.push(a);
            } else {
                // Replication: fitness carries over.
                let mut a = self.tournament(pop, rng).clone();
                a.origin = "replicate";
                out.push(a);
            }
        }
        out
    }

    /// Stochastic hill-climbing local search (§III-D): propose insertion,
    /// deletion — and, when enabled, a fine parameter tweak — with equal
    /// probability; adopt on strict improvement.
    ///
    /// Steps run in lock-step across the population: each step proposes
    /// one move per individual on the coordinator (from the individual's
    /// own RNG stream), derives the proposals in one pool round and scores
    /// them in one evaluation round.
    fn local_search(&self, pool: &EvalPool, pop: &mut [Individual], gen: usize) {
        if self.cfg.local_search_steps == 0 {
            return;
        }
        let master = self.cfg.seed;
        let sigma = self.sigma_scale(gen.saturating_sub(1));
        let moves = if self.cfg.ls_param_tweak { 3 } else { 2 };
        // One baseline snapshot for the whole phase, taken at its start.
        let baseline = self.state().best_prev_full;
        let mut rngs: Vec<StdRng> = (0..pop.len())
            .map(|idx| StdRng::seed_from_u64(mix_seed(master, gen as u64 ^ 0xA5, idx as u64)))
            .collect();
        for _ in 0..self.cfg.local_search_steps {
            let mut proposals = Vec::new();
            for (idx, (ind, rng)) in pop.iter().zip(&mut rngs).enumerate() {
                let mut tree = ind.tree.clone();
                let mv = rng.gen_range(0..moves);
                let changed = match mv {
                    0 => insertion(&mut tree, self.grammar, rng, self.cfg.max_size),
                    1 => deletion(&mut tree, self.grammar, rng, self.cfg.min_size),
                    _ => param_tweak(&mut tree, self.grammar, &self.priors, sigma, rng),
                };
                if changed {
                    let origin = ["ls-insert", "ls-delete", "ls-tweak"][mv];
                    let ph = None;
                    proposals.push(Proposal {
                        idx,
                        tree,
                        origin,
                        ph,
                    });
                }
            }
            pool.for_each_mut(&mut proposals, |_, p| {
                p.ph = self.build_phenotype(&p.tree).ok();
            });
            proposals.retain(|p| p.ph.is_some());
            let scores = {
                let phenos: Vec<&Phenotype> =
                    proposals.iter().filter_map(|p| p.ph.as_ref()).collect();
                self.evaluate_round(pool, &phenos, baseline)
            };
            for (p, (f, full)) in proposals.into_iter().zip(scores) {
                let ind = &mut pop[p.idx];
                if f < ind.fitness {
                    ind.tree = p.tree;
                    ind.fitness = f;
                    ind.fully_evaluated = full;
                    ind.origin = p.origin;
                    // The adopted candidate's phenotype is already derived —
                    // memoise it so later generations skip the rebuild.
                    ind.pheno = p.ph.map(Arc::new);
                }
            }
        }
    }

    /// Run the evolutionary loop to completion.
    pub fn run(&self) -> RunReport {
        self.run_with_observer(|_| {})
    }

    /// [`Self::run`] with a per-generation callback — progress display for
    /// long searches. The callback receives each generation's stats right
    /// after it is recorded.
    pub fn run_with_observer(&self, observer: impl FnMut(&GenStats)) -> RunReport {
        // One pool for the whole run; each round spawns and joins its own
        // scoped workers. Worker count is clamped to the most work a round
        // can hold.
        let threads = self.cfg.threads.clamp(1, self.cfg.pop_size.max(1));
        let (mut report, pool_stats) = with_pool(threads, |pool| self.run_inner(pool, observer));
        report.pool = pool_stats;
        report
    }

    fn run_inner(&self, pool: &EvalPool, mut observer: impl FnMut(&GenStats)) -> RunReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut pop: Vec<Individual> = {
            let _sp = gmr_obsv::span!("gen.init");
            (0..self.cfg.pop_size)
                .map(|_| {
                    let mut tree =
                        self.grammar
                            .random_tree(&mut rng, self.cfg.min_size, self.cfg.max_size);
                    if self.cfg.init_params_from_prior {
                        // Sample generation zero's constants from the truncated
                        // Gaussian priors rather than pinning them at the means.
                        gaussian_mutation_partial(
                            &mut tree,
                            self.grammar,
                            &self.priors,
                            1.0,
                            1.0,
                            &mut rng,
                        );
                    }
                    Individual::new(tree)
                })
                .collect()
        };

        let mut history = Vec::with_capacity(self.cfg.max_gen + 1);
        let record = |gen: usize, pop: &[Individual], t0: Instant, hist: &mut Vec<GenStats>| {
            let best = pop.iter().map(|i| i.fitness).fold(f64::INFINITY, f64::min);
            let finite: Vec<f64> = pop
                .iter()
                .map(|i| i.fitness)
                .filter(|f| f.is_finite())
                .collect();
            let mean = if finite.is_empty() {
                f64::INFINITY
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            hist.push(GenStats {
                generation: gen,
                best,
                mean,
                evaluations: self.evals.get(),
                evaluated_steps: self.steps.get(),
                elapsed: t0.elapsed(),
            });
        };

        let mut prev_counters = self.counter_snap();
        let mut prev_best = f64::INFINITY;

        let t0 = Instant::now();
        {
            let _sp = gmr_obsv::span!("gen.evaluate", 0);
            self.evaluate_population(pool, &mut pop);
        }
        self.emit_round_event(pool, "evaluate", pop.len());
        pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        record(0, &pop, t0, &mut history);
        self.emit_gen_event(history.last().expect("just recorded"), &mut prev_counters);
        self.emit_elite_event(0, &pop, &mut prev_best);
        self.check_invariants(0, &pop);
        observer(history.last().expect("just recorded"));

        for gen in 1..=self.cfg.max_gen {
            let t0 = Instant::now();
            let sigma = self.sigma_scale(gen - 1);
            let mut offspring = {
                let _sp = gmr_obsv::span!("gen.breed", gen as u64);
                self.breed(&pop, &mut rng, sigma)
            };
            {
                let _sp = gmr_obsv::span!("gen.evaluate", gen as u64);
                self.evaluate_population(pool, &mut offspring);
            }
            self.emit_round_event(pool, "evaluate", offspring.len());
            if self.cfg.local_search_steps > 0 {
                let _sp = gmr_obsv::span!("gen.local_search", gen as u64);
                self.local_search(pool, &mut offspring, gen);
                drop(_sp);
                self.emit_round_event(pool, "local-search", offspring.len());
            }

            {
                let _sp = gmr_obsv::span!("gen.select", gen as u64);
                let mut next: Vec<Individual> = pop.iter().take(self.cfg.elite).cloned().collect();
                next.append(&mut offspring);
                next.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
                next.truncate(self.cfg.pop_size);
                pop = next;
            }
            record(gen, &pop, t0, &mut history);
            self.emit_gen_event(history.last().expect("just recorded"), &mut prev_counters);
            self.emit_elite_event(gen, &pop, &mut prev_best);
            self.check_invariants(gen, &pop);
            observer(history.last().expect("just recorded"));
        }

        let top = pop.len().min(10);
        let top_full_fraction = if top == 0 {
            0.0
        } else {
            pop[..top].iter().filter(|i| i.fully_evaluated).count() as f64 / top as f64
        };
        // Re-evaluate the champion fully (its recorded fitness may be a
        // short-circuited surrogate).
        let mut best = pop.into_iter().next().expect("population is non-empty");
        let saved = self.cfg.es_threshold;
        if saved.is_some() {
            // A direct full evaluation, bypassing ES and the cache entry
            // that may hold a surrogate. The champion's memoised phenotype
            // usually makes this re-derivation-free.
            let _sp = gmr_obsv::span!("gen.champion");
            let Some(ph) = self.ensure_phenotype(&mut best) else {
                return self.report(best, history, top_full_fraction);
            };
            let (f, _) = self.evaluator.evaluate(&ph, &mut |_, _| true);
            best.fitness = f;
            best.fully_evaluated = true;
        }
        self.report(best, history, top_full_fraction)
    }

    fn report(
        &self,
        best: Individual,
        history: Vec<GenStats>,
        top_full_fraction: f64,
    ) -> RunReport {
        RunReport {
            best,
            history,
            evaluations: self.evals.get(),
            evaluated_steps: self.steps.get(),
            full_evaluations: self.fulls.get(),
            short_circuited: self.shorts.get(),
            cache_hit_rate: hit_rate(self.cache_hits.get(), self.cache_misses.get()),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            pheno_builds: self.pheno_builds.get(),
            pheno_reuses: self.pheno_reuses.get(),
            compiles: self.compiles.get(),
            pool: PoolStats::default(),
            top_full_fraction,
            metrics: self.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_expr::EvalContext;
    use gmr_tag::grammar::test_fixtures::tiny_grammar;

    /// Fit `y = 2x - 1` with the tiny grammar (reachable exactly:
    /// `(x * C0) - r…` with C0 → 2 and lexemes summing to 1).
    struct LineFit {
        xs: Vec<f64>,
        ys: Vec<f64>,
    }

    impl LineFit {
        fn new() -> Self {
            let xs: Vec<f64> = (0..64).map(|i| i as f64 / 4.0).collect();
            let ys = xs.iter().map(|x| 2.0 * x - 1.0).collect();
            LineFit { xs, ys }
        }
    }

    impl Evaluator for LineFit {
        fn num_equations(&self) -> usize {
            1
        }
        fn num_cases(&self) -> usize {
            self.xs.len()
        }
        fn evaluate(&self, ph: &Phenotype, ctl: &mut dyn FnMut(f64, usize) -> bool) -> (f64, bool) {
            let eq = &ph.eqs()[0];
            let comp = ph.compiled();
            let mut scratch = comp.map(|sys| sys.scratch());
            let mut out = [0.0f64];
            let mut sse = 0.0;
            for (i, (&x, &y)) in self.xs.iter().zip(&self.ys).enumerate() {
                let state = [x];
                // The tiny grammar's pool includes Var(0); provide its slot
                // (always 0.0) so arity-checked compiled programs accept it.
                let ctx = EvalContext {
                    vars: &[0.0],
                    state: &state,
                };
                let p = match (&comp, &mut scratch) {
                    (Some(sys), Some(scratch)) => {
                        sys.eval_step(&ctx, scratch, &mut out);
                        out[0]
                    }
                    _ => eq.eval(&ctx),
                };
                let d = p - y;
                sse += d * d;
                let done = i + 1;
                if done % 8 == 0 && done < self.xs.len() {
                    let running = (sse / done as f64).sqrt();
                    if !ctl(running, done) {
                        return (running, false);
                    }
                }
            }
            ((sse / self.xs.len() as f64).sqrt(), true)
        }
    }

    fn small_cfg(seed: u64) -> GpConfig {
        GpConfig {
            pop_size: 40,
            max_gen: 25,
            min_size: 2,
            max_size: 10,
            local_search_steps: 2,
            threads: 1,
            seed,
            ..Default::default()
        }
    }

    fn priors() -> ParamPriors {
        // Kind 0: the alpha's anchor constant; kind 1: the R lexeme.
        ParamPriors::new([(2.0, 0.0, 4.0), (0.5, 0.0, 1.0)])
    }

    #[test]
    fn engine_improves_fitness() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let engine = Engine::new(&g, &problem, priors(), small_cfg(7));
        let report = engine.run();
        let first = report.history.first().unwrap().best;
        let last = report.best.fitness;
        assert!(last < first, "no improvement: {first} -> {last}");
        assert!(last < 1.0, "should fit the line well, got {last}");
    }

    #[test]
    fn best_fitness_is_monotone_with_elitism() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let engine = Engine::new(&g, &problem, priors(), small_cfg(11));
        let report = engine.run();
        let mut prev = f64::INFINITY;
        for gs in &report.history {
            assert!(
                gs.best <= prev + 1e-12,
                "gen {}: {} > {}",
                gs.generation,
                gs.best,
                prev
            );
            prev = gs.best;
        }
    }

    #[test]
    fn deterministic_for_fixed_seed_single_thread() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let a = Engine::new(&g, &problem, priors(), small_cfg(3)).run();
        let b = Engine::new(&g, &problem, priors(), small_cfg(3)).run();
        assert_eq!(a.best.fitness, b.best.fitness);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best.tree, b.best.tree);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let a = Engine::new(&g, &problem, priors(), small_cfg(1)).run();
        let b = Engine::new(&g, &problem, priors(), small_cfg(2)).run();
        assert_ne!(a.best.tree, b.best.tree);
    }

    #[test]
    fn cache_gets_hits() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let engine = Engine::new(&g, &problem, priors(), small_cfg(5));
        let report = engine.run();
        assert!(
            report.cache_hit_rate > 0.0,
            "replication and elitism should hit the cache"
        );
    }

    #[test]
    fn short_circuiting_reduces_evaluated_steps() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let mut with = small_cfg(9);
        with.use_cache = false;
        let mut without = with.clone();
        without.es_threshold = None;
        let r_with = Engine::new(&g, &problem, priors(), with).run();
        let r_without = Engine::new(&g, &problem, priors(), without).run();
        assert!(r_with.short_circuited > 0, "ES should trigger");
        assert_eq!(r_without.short_circuited, 0);
        let per_eval_with = r_with.evaluated_steps as f64 / r_with.evaluations as f64;
        let per_eval_without = r_without.evaluated_steps as f64 / r_without.evaluations as f64;
        assert!(
            per_eval_with < per_eval_without,
            "{per_eval_with} !< {per_eval_without}"
        );
    }

    #[test]
    fn parallel_run_completes_and_improves() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let mut cfg = small_cfg(13);
        cfg.threads = 4;
        let report = Engine::new(&g, &problem, priors(), cfg).run();
        assert!(report.best.fitness < report.history[0].best);
        // The pool saw every round, and accounts them to one record per
        // worker.
        assert!(report.pool.rounds > 0);
        assert_eq!(
            report.pool.workers.len(),
            4,
            "one record per worker: {:?}",
            report.pool.workers
        );
    }

    #[test]
    fn phenotype_memo_is_reused() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let report = Engine::new(&g, &problem, priors(), small_cfg(19)).run();
        assert!(report.pheno_builds > 0);
        assert!(
            report.pheno_reuses > 0,
            "elite/champion paths must reuse the memo"
        );
        // Runtime compilation on: one program per equation per build.
        assert_eq!(report.compiles, report.pheno_builds);
        assert!(report.cache_hits + report.cache_misses > 0);
    }

    #[test]
    fn population_smaller_than_thread_count() {
        // The pool clamps workers to pending work; a 3-individual
        // population under threads=8 must complete and stay deterministic.
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let mut cfg = small_cfg(23);
        cfg.pop_size = 3;
        cfg.elite = 1;
        cfg.max_gen = 4;
        cfg.threads = 8;
        let wide = Engine::new(&g, &problem, priors(), cfg.clone()).run();
        cfg.threads = 1;
        let narrow = Engine::new(&g, &problem, priors(), cfg).run();
        assert!(wide.pool.workers.len() <= 3, "{:?}", wide.pool.workers);
        let wide_best: Vec<u64> = wide.history.iter().map(|g| g.best.to_bits()).collect();
        let narrow_best: Vec<u64> = narrow.history.iter().map(|g| g.best.to_bits()).collect();
        assert_eq!(wide_best, narrow_best);
    }

    #[test]
    fn sigma_ramp_schedule() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let mut cfg = small_cfg(0);
        cfg.max_gen = 100;
        cfg.sigma_ramp_last = 20;
        cfg.sigma_floor = 0.1;
        let engine = Engine::new(&g, &problem, priors(), cfg);
        assert_eq!(engine.sigma_scale(0), 1.0);
        assert_eq!(engine.sigma_scale(79), 1.0);
        let s80 = engine.sigma_scale(80);
        let s99 = engine.sigma_scale(99);
        assert!(s80 < 1.0 && s80 > s99, "{s80} {s99}");
        assert!((s99 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_every_generation_in_order() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let engine = Engine::new(&g, &problem, priors(), small_cfg(41));
        let mut seen = Vec::new();
        let report = engine.run_with_observer(|gs| seen.push(gs.generation));
        assert_eq!(seen.len(), report.history.len());
        assert_eq!(seen, (0..=engine.config().max_gen).collect::<Vec<_>>());
    }

    #[test]
    fn invariant_hook_sees_every_generation_elite() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let cfg = small_cfg(17);
        let elite = cfg.elite;
        let max_gen = cfg.max_gen;
        let calls = AtomicUsize::new(0);
        let max_seen_gen = AtomicUsize::new(0);
        let mut engine = Engine::new(&g, &problem, priors(), cfg);
        engine.set_invariant_hook(|gen, tree, eqs| {
            calls.fetch_add(1, Ordering::Relaxed);
            max_seen_gen.fetch_max(gen, Ordering::Relaxed);
            assert!(!eqs.is_empty());
            assert!(tree.size() >= 2);
        });
        engine.run();
        // Generation 0 plus every evolved generation, elite individuals each.
        assert_eq!(calls.load(Ordering::Relaxed), (max_gen + 1) * elite);
        assert_eq!(max_seen_gen.load(Ordering::Relaxed), max_gen);
    }

    #[test]
    fn history_csv_is_well_formed() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let report = Engine::new(&g, &problem, priors(), small_cfg(31)).run();
        let csv = report.history_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "generation,best,mean,evaluations,evaluated_steps,elapsed_ms"
        );
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), report.history.len());
        for row in rows {
            assert_eq!(row.split(',').count(), 6);
        }
    }

    #[test]
    fn max_size_respected_throughout() {
        let (g, _) = tiny_grammar();
        let problem = LineFit::new();
        let cfg = small_cfg(21);
        let max = cfg.max_size;
        let engine = Engine::new(&g, &problem, priors(), cfg);
        let report = engine.run();
        assert!(report.best.tree.size() <= max);
        report.best.tree.validate(&g).unwrap();
    }
}
