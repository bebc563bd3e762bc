//! Figure 10's fixed evaluation workload and the runner for one
//! combination of the §III-D speed-up techniques — Tree Caching (TC),
//! Evaluation Short-circuiting (ES) and Runtime Compilation (RC).
//!
//! `exp_fig10` times every combination over the same workload; the golden
//! test pins each combination's work (fully evaluated trees) and fitness
//! checksum, so a change to any technique's code path that moves a
//! fitness or an abort shows up byte for byte.

use crate::Scale;
use gmr_core::{river_priors, Gmr, RiverEvaluator};
use gmr_gp::short_circuit::Extrapolate;
use gmr_gp::{Engine, GpConfig};
use gmr_tag::DerivTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Seed of the workload's pool and revisit draws.
const SEED: u64 = 0xF16;

/// One combination of the three techniques.
#[derive(Debug, Clone, Copy)]
pub struct Combo {
    /// Row label, e.g. `"TC+ES"`.
    pub label: &'static str,
    /// Tree caching on.
    pub tc: bool,
    /// Evaluation short-circuiting on.
    pub es: bool,
    /// Runtime compilation on.
    pub rc: bool,
}

const fn combo(label: &'static str, tc: bool, es: bool, rc: bool) -> Combo {
    Combo { label, tc, es, rc }
}

/// Every combination, the no-technique baseline first.
pub const COMBOS: [Combo; 8] = [
    combo("None", false, false, false),
    combo("TC", true, false, false),
    combo("ES", false, true, false),
    combo("RC", false, false, true),
    combo("TC+ES", true, true, false),
    combo("TC+RC", true, false, true),
    combo("ES+RC", false, true, true),
    combo("TC+ES+RC", true, true, true),
];

/// A fixed evaluation sequence mimicking the revisit pattern a GP
/// population produces (elites, replication, re-converged structures): a
/// pool of random revisions visited once in order, then five more passes'
/// worth of draws, 60% the next pool entry and 40% a revisit of a random
/// earlier one.
pub struct Workload {
    pool: Vec<DerivTree>,
    order: Vec<usize>,
}

impl Workload {
    /// The workload for `scale`, drawn from the fixed seed `0xF16`.
    pub fn new(gmr: &Gmr, scale: &Scale) -> Workload {
        let pool_size = scale.gmr_pop.max(60);
        let mut rng = StdRng::seed_from_u64(SEED);
        let pool: Vec<DerivTree> = (0..pool_size)
            .map(|_| gmr.grammar.grammar.random_tree(&mut rng, 2, 50))
            .collect();
        let order = (0..pool_size * 6)
            .map(|i| {
                if i < pool_size || rng.gen_bool(0.6) {
                    i % pool_size
                } else {
                    rng.gen_range(0..pool_size)
                }
            })
            .collect();
        Workload { pool, order }
    }

    /// Evaluations in the sequence.
    pub fn evaluations(&self) -> usize {
        self.order.len()
    }

    /// Distinct individuals in the pool.
    pub fn unique(&self) -> usize {
        self.pool.len()
    }
}

/// What one combination's pass over the workload produced.
#[derive(Debug, Clone, Copy)]
pub struct ComboRun {
    /// Evaluations that came back fully evaluated (simulated to the last
    /// day, or a cache hit on such a result).
    pub full: usize,
    /// Sum of every finite fitness, each capped at 1e6.
    pub checksum: f64,
    /// Wall time of the evaluations alone.
    pub elapsed: Duration,
}

/// Evaluate the whole workload single-threaded under `combo`. ES uses the
/// paper's running-RMSE surrogate with threshold 1.0; its baseline forms
/// as the sequence progresses.
pub fn run(gmr: &Gmr, evaluator: &RiverEvaluator, workload: &Workload, combo: &Combo) -> ComboRun {
    let cfg = GpConfig {
        use_cache: combo.tc,
        es_threshold: combo.es.then_some(1.0),
        extrapolate: Extrapolate::RunningRmse,
        use_compiled: combo.rc,
        threads: 1,
        ..GpConfig::default()
    };
    let engine = Engine::new(&gmr.grammar.grammar, evaluator, river_priors(), cfg);
    let t0 = Instant::now();
    let mut full = 0;
    let mut checksum = 0.0f64;
    for &i in &workload.order {
        let (f, done) = engine.evaluate_tree(&workload.pool[i]);
        full += usize::from(done);
        if f.is_finite() {
            checksum += f.min(1e6);
        }
    }
    ComboRun {
        full,
        checksum,
        elapsed: t0.elapsed(),
    }
}
