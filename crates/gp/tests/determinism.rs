//! Thread-count invariance: at a fixed seed, the per-generation fitness
//! trajectory must be bit-identical and every work counter equal for any
//! `threads` setting.
//!
//! The engine's determinism contract (see `engine.rs` module docs) is that
//! parallelism only changes *which worker* runs a job, never *what* it
//! evaluates or what the search records: the coordinating thread owns the
//! tree cache and the short-circuit baseline, looks every candidate up and
//! records every result in candidate order, and the pool evaluates each
//! distinct miss once against the round's baseline snapshot. These tests
//! pin that contract: a single bit of fitness or a single evaluation of
//! divergence between thread counts is a bug, not noise.

use gmr_expr::EvalContext;
use gmr_gp::short_circuit::Extrapolate;
use gmr_gp::{Engine, Evaluator, GpConfig, ParamPriors, Phenotype, RunReport};
use gmr_tag::grammar::test_fixtures::tiny_grammar;
use std::time::Duration;

/// Fit `y = 2x - 1` — same reachable target the engine's unit tests use,
/// with a short-circuit checkpoint every 8 cases so ES actually engages.
/// `sleep` stretches each evaluation so that duplicates evaluated in the
/// same round overlap across workers.
struct LineFit {
    xs: Vec<f64>,
    ys: Vec<f64>,
    sleep: Duration,
}

impl LineFit {
    fn new(sleep: Duration) -> Self {
        let xs: Vec<f64> = (0..64).map(|i| i as f64 / 4.0).collect();
        let ys = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        LineFit { xs, ys, sleep }
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
        if !self.sleep.is_zero() {
            std::thread::sleep(self.sleep);
        }
        let eq = &ph.eqs()[0];
        let comp = ph.compiled();
        let mut scratch = comp.map(|sys| sys.scratch());
        let mut out = [0.0f64];
        let mut sse = 0.0;
        for (i, (&x, &y)) in self.xs.iter().zip(&self.ys).enumerate() {
            let state = [x];
            // tiny_grammar's pool includes Var(0); supply its (constant 0.0)
            // slot so arity-checked compiled programs accept the system.
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

fn cfg(threads: usize, extrapolate: Extrapolate, seed: u64) -> GpConfig {
    GpConfig {
        pop_size: 32,
        max_gen: 12,
        min_size: 2,
        max_size: 10,
        local_search_steps: 2,
        es_threshold: Some(1.1),
        extrapolate,
        threads,
        seed,
        ..GpConfig::default()
    }
}

/// Everything a run must reproduce at any thread count: the (best, mean)
/// fitness trajectory as raw bits, the champion's fitness bits, and every
/// work counter.
#[derive(Debug, PartialEq)]
struct Outcome {
    trajectory: Vec<(u64, u64)>,
    champion: u64,
    evaluations: u64,
    evaluated_steps: u64,
    full_evaluations: u64,
    short_circuited: u64,
    cache_hits: u64,
    cache_misses: u64,
    pheno_builds: u64,
    pheno_reuses: u64,
}

impl From<RunReport> for Outcome {
    fn from(r: RunReport) -> Self {
        Outcome {
            trajectory: r
                .history
                .iter()
                .map(|s| (s.best.to_bits(), s.mean.to_bits()))
                .collect(),
            champion: r.best.fitness.to_bits(),
            evaluations: r.evaluations,
            evaluated_steps: r.evaluated_steps,
            full_evaluations: r.full_evaluations,
            short_circuited: r.short_circuited,
            cache_hits: r.cache_hits,
            cache_misses: r.cache_misses,
            pheno_builds: r.pheno_builds,
            pheno_reuses: r.pheno_reuses,
        }
    }
}

fn run(c: GpConfig, sleep: Duration) -> Outcome {
    let (g, _) = tiny_grammar();
    let problem = LineFit::new(sleep);
    let priors = ParamPriors::new([(2.0, 0.0, 4.0), (0.5, 0.0, 1.0)]);
    let max_gen = c.max_gen;
    let out = Outcome::from(Engine::new(&g, &problem, priors, c).run());
    assert_eq!(
        out.trajectory.len(),
        max_gen + 1,
        "one record per generation + gen 0"
    );
    out
}

/// Run `base` at threads {1, 2, 4, 8} and require every outcome to equal
/// the one-thread run's.
fn assert_thread_invariant(base: GpConfig, sleep: Duration) {
    let at = |threads: usize| {
        run(
            GpConfig {
                threads,
                ..base.clone()
            },
            sleep,
        )
    };
    let reference = at(1);
    assert!(reference.evaluations > 0);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            reference,
            at(threads),
            "run diverged between threads=1 and threads={threads} \
             (extrapolate {:?}, seed {}, cache {}, sleep {sleep:?})",
            base.extrapolate,
            base.seed,
            base.use_cache,
        );
    }
}

#[test]
fn trajectories_bit_identical_across_thread_counts_optimistic() {
    assert_thread_invariant(cfg(1, Extrapolate::Optimistic, 42), Duration::ZERO);
}

#[test]
fn trajectories_bit_identical_across_thread_counts_running_rmse() {
    // The eager extrapolation mode short-circuits far more aggressively, so
    // it exercises the baseline-snapshot path harder.
    assert_thread_invariant(cfg(1, Extrapolate::RunningRmse, 43), Duration::ZERO);
}

#[test]
fn trajectories_bit_identical_with_cache_and_compilation_off() {
    // Determinism must not depend on the memo layers masking divergence.
    let mut c = cfg(1, Extrapolate::RunningRmse, 44);
    c.use_cache = false;
    c.use_compiled = false;
    assert_thread_invariant(c, Duration::ZERO);
}

#[test]
fn counters_equal_across_thread_counts_when_duplicates_overlap() {
    // A sleep in every evaluation keeps a round's jobs in flight together,
    // so a duplicate of a pending candidate is looked up while the first
    // is still being simulated. The pending job must serve it as a hit —
    // were it evaluated a second time, evaluations and cache counters
    // would depend on the interleaving.
    for seed in [42, 44] {
        assert_thread_invariant(
            cfg(1, Extrapolate::Optimistic, seed),
            Duration::from_micros(50),
        );
    }
}
