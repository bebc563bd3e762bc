//! Adapters between the river problem and the GP engine.

use gmr_bio::params::{NUM_CALIBRATED, PARAMS};
use gmr_bio::RiverProblem;
use gmr_expr::CompiledSystem;
use gmr_gp::{Evaluator, ParamPriors, Phenotype};

/// Table III (plus the `R` pseudo-parameter) as GP mutation priors.
pub fn river_priors() -> ParamPriors {
    ParamPriors::new(PARAMS.iter().map(|p| (p.mean, p.min, p.max)))
}

/// Number of calibratable constants, re-exported for the baselines.
pub const NUM_CALIBRATED_PARAMS: usize = NUM_CALIBRATED;

/// [`gmr_gp::Evaluator`] implementation for the two-equation river system.
pub struct RiverEvaluator {
    problem: RiverProblem,
}

impl RiverEvaluator {
    /// Wrap a materialised problem.
    pub fn new(problem: RiverProblem) -> Self {
        RiverEvaluator { problem }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &RiverProblem {
        &self.problem
    }
}

impl Evaluator for RiverEvaluator {
    fn num_equations(&self) -> usize {
        2
    }

    fn num_cases(&self) -> usize {
        self.problem.num_cases()
    }

    fn evaluate(&self, ph: &Phenotype, ctl: &mut dyn FnMut(f64, usize) -> bool) -> (f64, bool) {
        let eqs = ph.eqs();
        debug_assert_eq!(eqs.len(), 2);
        // The engine compiled the system once per genotype; reuse it here
        // instead of recompiling per evaluation.
        self.problem
            .evaluate_precompiled([&eqs[0], &eqs[1]], ph.compiled(), ctl)
    }

    /// A group of compiled members is scored as one group, sharing the
    /// state-independent work their prefixes have in common
    /// ([`RiverProblem::evaluate_group`]); with runtime compilation off,
    /// the interpreter scores the members one by one. Each result equals
    /// [`Self::evaluate`]'s.
    fn evaluate_group(
        &self,
        phs: &[&Phenotype],
        ctl: &mut dyn FnMut(usize, f64, usize) -> bool,
    ) -> Vec<(f64, bool)> {
        let systems: Option<Vec<&CompiledSystem>> = phs.iter().map(|ph| ph.compiled()).collect();
        match systems {
            Some(systems) => self.problem.evaluate_group(&systems, ctl),
            None => phs
                .iter()
                .enumerate()
                .map(|(i, ph)| self.evaluate(ph, &mut |running, done| ctl(i, running, done)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_bio::manual::manual_system;
    use gmr_hydro::{generate, SyntheticConfig};

    fn evaluator() -> RiverEvaluator {
        let ds = generate(&SyntheticConfig {
            start_year: 1996,
            end_year: 1996,
            train_end_year: 1996,
            ..Default::default()
        });
        RiverEvaluator::new(RiverProblem::from_dataset(&ds, ds.train))
    }

    #[test]
    fn priors_cover_all_kinds() {
        let p = river_priors();
        assert_eq!(p.len(), PARAMS.len());
        assert_eq!(p.get(0).mean, 1.89); // CUA
        assert_eq!(p.get(16).max, 1.0); // R
    }

    #[test]
    fn evaluator_matches_direct_rmse() {
        let ev = evaluator();
        let eqs = manual_system();
        let ph = Phenotype::build(eqs.to_vec(), false);
        let (fit, full) = Evaluator::evaluate(&ev, &ph, &mut |_, _| true);
        assert!(full);
        let direct = ev.problem().rmse(&eqs);
        if direct.is_finite() {
            assert!((fit - direct).abs() < 1e-9);
        } else {
            assert_eq!(fit, f64::INFINITY);
        }
    }

    #[test]
    fn shapes() {
        let ev = evaluator();
        assert_eq!(ev.num_equations(), 2);
        assert_eq!(ev.num_cases(), 366);
    }
}
