//! GGGP — grammar-guided genetic programming for model revision (§IV-B4).
//!
//! The paper's strongest comparator: like GMR it receives the expert process
//! and revises both structure and parameters, but it is guided by a plain
//! context-free grammar rather than TAG. Concretely, each extension point of
//! eqs. (5)–(6) carries an optional revision expression generated by the CFG
//!
//! ```text
//! E → V | E op E | log(E) | exp(E)       (V = the extension's Table II
//!                                          variables, or a random constant)
//! ```
//!
//! attached to the expert equation with the extension's connector. Search is
//! generational GP over `(revisions, θ)` with subtree crossover/mutation on
//! the CFG trees and Gaussian mutation on the constants. Two structural
//! differences from GMR remain, as in the paper: no adjunction (so revisions
//! regenerate rather than *grow*) and no local search (the paper compensates
//! GGGP with a larger population; the bench harness does the same).

use gmr_bio::extensions::{extensions, ExtOp, ExtensionSpec};
use gmr_bio::grammar::marked_system;
use gmr_bio::mexpr::MExpr;
use gmr_bio::params::{spec, NUM_CALIBRATED, R_KIND};
use gmr_bio::RiverProblem;
use gmr_expr::{simplify, Expr, ParamSlot};
use gmr_tag::Token;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// GGGP configuration.
#[derive(Debug, Clone)]
pub struct GggpConfig {
    /// Population size (the paper uses 1200 to budget-match GMR's local
    /// search; tests use far less).
    pub pop_size: usize,
    /// Generations.
    pub max_gen: usize,
    /// Tournament size.
    pub tournament: usize,
    /// Elite count.
    pub elite: usize,
    /// Crossover probability.
    pub p_crossover: f64,
    /// Subtree-mutation probability.
    pub p_subtree: f64,
    /// Gaussian-mutation probability (remainder replicates).
    pub p_gauss: f64,
    /// Probability a given extension point is active at initialisation.
    pub p_active: f64,
    /// Maximum CFG tree depth.
    pub max_depth: usize,
    /// Worker threads for fitness evaluation.
    pub threads: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for GggpConfig {
    fn default() -> Self {
        GggpConfig {
            pop_size: 200,
            max_gen: 100,
            tournament: 5,
            elite: 2,
            p_crossover: 0.3,
            p_subtree: 0.3,
            p_gauss: 0.3,
            p_active: 0.4,
            max_depth: 4,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 0,
        }
    }
}

/// One GGGP individual: per-extension revision expressions plus the
/// calibrated constants.
#[derive(Debug, Clone)]
pub struct GggpIndividual {
    /// `revisions[i]` pairs with `extensions()[i]`.
    pub revisions: Vec<Option<Expr>>,
    /// θ over the sixteen Table III constants.
    pub theta: Vec<f64>,
    /// Training RMSE (∞ until evaluated).
    pub fitness: f64,
}

fn gauss<R: Rng>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn random_leaf<R: Rng>(spec_: &ExtensionSpec, rng: &mut R) -> Expr {
    match spec_.variables.choose(rng).expect("non-empty variable set") {
        Token::Var(v) => Expr::Var(*v),
        Token::Param { kind, .. } => Expr::Param(ParamSlot {
            kind: *kind,
            value: rng.gen_range(0.0..1.0),
        }),
        other => unreachable!("extension variables are vars or R, got {other:?}"),
    }
}

fn random_tree<R: Rng>(spec_: &ExtensionSpec, depth: usize, rng: &mut R) -> Expr {
    if depth == 0 || rng.gen_bool(0.35) {
        return random_leaf(spec_, rng);
    }
    match spec_.extenders.choose(rng).expect("non-empty extender set") {
        ExtOp::Bin(op) => Expr::bin(
            *op,
            random_tree(spec_, depth - 1, rng),
            random_tree(spec_, depth - 1, rng),
        ),
        ExtOp::Un(op) => Expr::un(*op, random_tree(spec_, depth - 1, rng)),
    }
}

/// Collect mutable subtree pointers for crossover/mutation (preorder).
fn subtree_count(e: &Expr) -> usize {
    e.size()
}

fn subtree_at(e: &mut Expr, mut idx: usize) -> &mut Expr {
    fn go<'a>(e: &'a mut Expr, idx: &mut usize) -> Option<&'a mut Expr> {
        if *idx == 0 {
            return Some(e);
        }
        *idx -= 1;
        match e {
            Expr::Unary(_, a) => go(a, idx),
            Expr::Binary(_, a, b) => go(a, idx).or_else(|| go(b, idx)),
            _ => None,
        }
    }
    // The caller guarantees idx < size; walk twice to appease the borrow
    // checker's simplest form.
    go(e, &mut idx).expect("index within subtree count")
}

/// The GGGP runner bound to a training problem.
pub struct Gggp<'a> {
    train: &'a RiverProblem,
    specs: Vec<ExtensionSpec>,
    marked: [MExpr; 2],
    cfg: GggpConfig,
}

/// Result of a GGGP run.
#[derive(Debug, Clone)]
pub struct GggpResult {
    /// The winning phenotype.
    pub equations: [Expr; 2],
    /// Its training RMSE.
    pub train_rmse: f64,
    /// Fitness evaluations consumed.
    pub evaluations: usize,
}

impl<'a> Gggp<'a> {
    /// Bind to a training problem.
    pub fn new(train: &'a RiverProblem, cfg: GggpConfig) -> Self {
        Gggp {
            train,
            specs: extensions(),
            marked: marked_system(),
            cfg,
        }
    }

    fn build(&self, m: &MExpr, ind: &GggpIndividual) -> Expr {
        match m {
            MExpr::Leaf(e) => {
                let mut e = e.clone();
                if let Expr::Param(p) = &mut e {
                    if (p.kind as usize) < NUM_CALIBRATED {
                        p.value = ind.theta[p.kind as usize];
                    }
                }
                e
            }
            MExpr::Bin(op, a, b) => Expr::bin(*op, self.build(a, ind), self.build(b, ind)),
            MExpr::Un(op, a) => Expr::un(*op, self.build(a, ind)),
            MExpr::Ext(id, inner) => {
                let base = self.build(inner, ind);
                let slot = self.specs.iter().position(|s| s.id == *id);
                match slot.and_then(|i| ind.revisions[i].as_ref()) {
                    Some(rev) => {
                        let conn = self.specs[slot.expect("slot found")].connector;
                        Expr::bin(conn, base, rev.clone())
                    }
                    None => base,
                }
            }
        }
    }

    /// Lower an individual to its equation system.
    pub fn phenotype(&self, ind: &GggpIndividual) -> [Expr; 2] {
        [
            simplify(&self.build(&self.marked[0], ind)),
            simplify(&self.build(&self.marked[1], ind)),
        ]
    }

    fn random_individual<R: Rng>(&self, rng: &mut R) -> GggpIndividual {
        let revisions = self
            .specs
            .iter()
            .map(|s| {
                rng.gen_bool(self.cfg.p_active)
                    .then(|| random_tree(s, self.cfg.max_depth, rng))
            })
            .collect();
        let theta = (0..NUM_CALIBRATED).map(|k| spec(k as u16).mean).collect();
        GggpIndividual {
            revisions,
            theta,
            fitness: f64::INFINITY,
        }
    }

    fn evaluate_population(&self, pop: &mut [GggpIndividual], evals: &mut usize) {
        let pending = pop.iter().filter(|i| !i.fitness.is_finite()).count();
        *evals += pending;
        let threads = self.cfg.threads.max(1);
        if threads == 1 || pop.len() <= 1 {
            for ind in pop.iter_mut() {
                if !ind.fitness.is_finite() {
                    ind.fitness = self.train.rmse(&self.phenotype(ind));
                }
            }
            return;
        }
        let chunk = pop.len().div_ceil(threads);
        std::thread::scope(|s| {
            for ch in pop.chunks_mut(chunk) {
                s.spawn(move || {
                    for ind in ch.iter_mut() {
                        if !ind.fitness.is_finite() {
                            ind.fitness = self.train.rmse(&self.phenotype(ind));
                        }
                    }
                });
            }
        });
    }

    fn mutate_params<R: Rng>(&self, ind: &mut GggpIndividual, rng: &mut R) {
        for (k, t) in ind.theta.iter_mut().enumerate() {
            let s = spec(k as u16);
            let sd = (s.mean.abs() / 4.0).max((s.max - s.min) / 8.0);
            *t = gauss(rng, *t, sd).clamp(s.min, s.max);
        }
        for rev in ind.revisions.iter_mut().flatten() {
            for slot in rev.param_slots_mut() {
                if slot.kind == R_KIND {
                    slot.value = gauss(rng, slot.value, 0.125).clamp(0.0, 1.0);
                }
            }
        }
        ind.fitness = f64::INFINITY;
    }

    /// Run to completion.
    pub fn run(&self) -> GggpResult {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut evals = 0usize;
        let mut pop: Vec<GggpIndividual> = (0..self.cfg.pop_size)
            .map(|_| self.random_individual(&mut rng))
            .collect();
        self.evaluate_population(&mut pop, &mut evals);
        pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

        for _gen in 0..self.cfg.max_gen {
            let mut next: Vec<GggpIndividual> = pop.iter().take(self.cfg.elite).cloned().collect();
            while next.len() < self.cfg.pop_size {
                let pick = |rng: &mut StdRng| -> GggpIndividual {
                    let mut best = &pop[rng.gen_range(0..pop.len())];
                    for _ in 1..self.cfg.tournament {
                        let c = &pop[rng.gen_range(0..pop.len())];
                        if c.fitness < best.fitness {
                            best = c;
                        }
                    }
                    best.clone()
                };
                let roll: f64 = rng.gen();
                let mut child = pick(&mut rng);
                if roll < self.cfg.p_crossover {
                    let donor = pick(&mut rng);
                    // Swap material within one shared active extension.
                    let both: Vec<usize> = (0..self.specs.len())
                        .filter(|&i| child.revisions[i].is_some() && donor.revisions[i].is_some())
                        .collect();
                    if let Some(&i) = both.choose(&mut rng) {
                        let (mut a, b) = (
                            child.revisions[i].clone().expect("active"),
                            donor.revisions[i].clone().expect("active"),
                        );
                        let ai = rng.gen_range(0..subtree_count(&a));
                        let mut b_owned = b;
                        let bi = rng.gen_range(0..subtree_count(&b_owned));
                        let replacement = subtree_at(&mut b_owned, bi).clone();
                        *subtree_at(&mut a, ai) = replacement;
                        // Bloat control: repeated swaps would otherwise grow
                        // revisions without bound; regenerate oversized ones.
                        let cap = 1usize << (self.cfg.max_depth + 2);
                        if a.size() > cap {
                            a = random_tree(&self.specs[i], self.cfg.max_depth, &mut rng);
                        }
                        child.revisions[i] = Some(a);
                    } else {
                        // No shared active extension: graft one of the
                        // donor's revisions wholesale.
                        if let Some(i) =
                            (0..self.specs.len()).find(|&i| donor.revisions[i].is_some())
                        {
                            child.revisions[i] = donor.revisions[i].clone();
                        }
                    }
                    child.fitness = f64::INFINITY;
                } else if roll < self.cfg.p_crossover + self.cfg.p_subtree {
                    // Subtree mutation: toggle or regenerate one extension.
                    let i = rng.gen_range(0..self.specs.len());
                    child.revisions[i] = if child.revisions[i].is_some() && rng.gen_bool(0.3) {
                        None
                    } else {
                        Some(random_tree(&self.specs[i], self.cfg.max_depth, &mut rng))
                    };
                    child.fitness = f64::INFINITY;
                } else if roll < self.cfg.p_crossover + self.cfg.p_subtree + self.cfg.p_gauss {
                    self.mutate_params(&mut child, &mut rng);
                }
                next.push(child);
            }
            self.evaluate_population(&mut next, &mut evals);
            next.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
            next.truncate(self.cfg.pop_size);
            pop = next;
        }
        let best = pop.into_iter().next().expect("population non-empty");
        GggpResult {
            equations: self.phenotype(&best),
            train_rmse: best.fitness,
            evaluations: evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_bio::manual::manual_system;
    use gmr_hydro::{generate, SyntheticConfig};

    fn problem() -> RiverProblem {
        let ds = generate(&SyntheticConfig {
            start_year: 1996,
            end_year: 1997,
            train_end_year: 1997,
            ..Default::default()
        });
        RiverProblem::from_dataset(&ds, ds.train)
    }

    fn small_cfg(seed: u64) -> GggpConfig {
        GggpConfig {
            pop_size: 20,
            max_gen: 5,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn improves_on_manual() {
        let p = problem();
        let manual_rmse = p.rmse(&manual_system());
        let res = Gggp::new(&p, small_cfg(1)).run();
        assert!(
            res.train_rmse <= manual_rmse,
            "{} vs {manual_rmse}",
            res.train_rmse
        );
        assert!(res.train_rmse.is_finite());
    }

    #[test]
    fn deterministic() {
        let p = problem();
        let a = Gggp::new(&p, small_cfg(2)).run();
        let b = Gggp::new(&p, small_cfg(2)).run();
        assert_eq!(a.train_rmse, b.train_rmse);
        assert_eq!(a.equations, b.equations);
    }

    #[test]
    fn revisions_use_only_admissible_variables() {
        use gmr_hydro::vars::*;
        let p = problem();
        let g = Gggp::new(&p, small_cfg(3));
        let mut rng = StdRng::seed_from_u64(9);
        let base: std::collections::BTreeSet<u8> =
            manual_system().iter().flat_map(|e| e.variables()).collect();
        let admissible: std::collections::BTreeSet<u8> =
            [VCD, VPH, VALK, VSD, VDO, VTMP].into_iter().collect();
        for _ in 0..50 {
            let ind = g.random_individual(&mut rng);
            for eq in g.phenotype(&ind) {
                for v in eq.variables() {
                    assert!(base.contains(&v) || admissible.contains(&v));
                }
            }
        }
    }

    #[test]
    fn inactive_individual_reduces_to_calibrated_manual() {
        let p = problem();
        let g = Gggp::new(&p, small_cfg(4));
        let ind = GggpIndividual {
            revisions: vec![None; extensions().len()],
            theta: (0..NUM_CALIBRATED).map(|k| spec(k as u16).mean).collect(),
            fitness: f64::INFINITY,
        };
        let eqs = g.phenotype(&ind);
        let manual: Vec<Expr> = manual_system().iter().map(simplify).collect();
        assert_eq!(eqs[0], manual[0]);
        assert_eq!(eqs[1], manual[1]);
    }

    #[test]
    fn random_tree_respects_depth() {
        let specs = extensions();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let t = random_tree(&specs[0], 3, &mut rng);
            assert!(t.depth() <= 4, "depth {} exceeds limit", t.depth());
        }
    }
}
