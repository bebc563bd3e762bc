//! The grouped evaluation path and the per-member default run the same
//! search.
//!
//! `RiverEvaluator` scores each claimed chunk of an evaluation round as one
//! group, sharing the state-independent prefix work its members have in
//! common. An evaluator that implements only `Evaluator::evaluate` gets the
//! trait's per-member default. Grouping may only share work, never change
//! a result: at every thread count both must give the same fitness
//! trajectory, the same champion and every counter equal.

use gmr_bio::RiverProblem;
use gmr_core::{river_priors, Gmr, RiverEvaluator};
use gmr_gp::{Engine, Evaluator, GpConfig, Phenotype, RunReport};
use gmr_hydro::{generate, SyntheticConfig};

/// The per-member default: only `evaluate`, the way a wrapping evaluator
/// that times each call is written.
struct PerMember(RiverEvaluator);

impl Evaluator for PerMember {
    fn num_equations(&self) -> usize {
        self.0.num_equations()
    }

    fn num_cases(&self) -> usize {
        self.0.num_cases()
    }

    fn evaluate(&self, ph: &Phenotype, ctl: &mut dyn FnMut(f64, usize) -> bool) -> (f64, bool) {
        self.0.evaluate(ph, ctl)
    }
}

/// The quick scale's dataset: 1996–1999, trained through 1998.
fn gmr() -> Gmr {
    Gmr::new(&generate(&SyntheticConfig {
        end_year: 1999,
        train_end_year: 1998,
        ..SyntheticConfig::default()
    }))
}

fn search<E: Evaluator>(gmr: &Gmr, ev: &E, threads: usize) -> RunReport {
    let gp = GpConfig {
        pop_size: 24,
        max_gen: 4,
        local_search_steps: 1,
        threads,
        seed: 7,
        sigma_ramp_last: 1,
        ..GpConfig::default()
    };
    Engine::new(&gmr.grammar.grammar, ev, river_priors(), gp).run()
}

/// Everything a search records that does not depend on the clock.
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut f = vec![
        r.best.fitness.to_bits(),
        r.best.tree.size() as u64,
        r.evaluations,
        r.evaluated_steps,
        r.full_evaluations,
        r.short_circuited,
        r.cache_hits,
        r.cache_misses,
        r.pheno_builds,
        r.pheno_reuses,
    ];
    for g in &r.history {
        f.extend([
            g.best.to_bits(),
            g.mean.to_bits(),
            g.evaluations,
            g.evaluated_steps,
        ]);
    }
    f
}

fn assert_same_searches(train: &RiverProblem, gmr: &Gmr) {
    let grouped = RiverEvaluator::new(train.clone());
    let per_member = PerMember(RiverEvaluator::new(train.clone()));
    for threads in [1, 2, 4] {
        let a = search(gmr, &grouped, threads);
        let b = search(gmr, &per_member, threads);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "threads {threads}: grouped and per-member searches differ"
        );
        assert_eq!(
            a.best.tree, b.best.tree,
            "threads {threads}: champions differ"
        );
        assert!(
            a.short_circuited > 0 && a.full_evaluations > 0,
            "the search both stops and completes evaluations"
        );
    }
}

#[test]
fn grouped_and_per_member_searches_are_identical() {
    let gmr = gmr();
    assert_same_searches(&gmr.train, &gmr);
}

#[test]
fn grouped_and_per_member_searches_are_identical_off_the_chunk_grid() {
    // Checkpoints every 20 days fall inside the 32-day sweep chunks, so
    // members retire mid-chunk.
    let gmr = gmr();
    let mut train = gmr.train.clone();
    train.opts.check_every = 20;
    assert_same_searches(&train, &gmr);
}
