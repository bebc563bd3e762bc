//! The top-level GMR runner (Fig. 5).

use crate::evaluator::{river_priors, RiverEvaluator};
use gmr_bio::{river_grammar, RiverGrammar, RiverProblem};
use gmr_expr::Expr;
use gmr_gp::{Engine, GpConfig, RunReport};
use gmr_hydro::data::RiverDataset;
use gmr_lint::{EquationLinter, Policy, Report};
use gmr_tag::lower::lower_system;
use gmr_tag::DerivTree;

/// GMR configuration: the GP engine settings plus the multi-run protocol.
#[derive(Debug, Clone)]
pub struct GmrConfig {
    /// Engine settings (paper Appendix B defaults).
    pub gp: GpConfig,
    /// Independent runs with different seeds (paper: 60). The best model by
    /// *training* fitness is selected; all finalists are kept for analysis.
    pub runs: usize,
    /// Run the `gmr-lint` battery over each generation's elite and panic on
    /// `Error`-level findings (a constant escaping its Table III prior, a
    /// lexeme the grammar should never produce). Cheap relative to fitness
    /// evaluation but pure overhead in production, so it defaults to on
    /// only in debug builds.
    pub lint_elite: bool,
}

impl Default for GmrConfig {
    fn default() -> Self {
        GmrConfig {
            gp: GpConfig::default(),
            runs: 1,
            lint_elite: cfg!(debug_assertions),
        }
    }
}

/// Outcome of one GMR run.
#[derive(Debug, Clone)]
pub struct GmrResult {
    /// The winning genotype.
    pub tree: DerivTree,
    /// Its lowered, simplified equations `[dBPhy/dt, dBZoo/dt]`.
    pub equations: Vec<Expr>,
    /// Training RMSE / MAE.
    pub train_rmse: f64,
    /// Training MAE.
    pub train_mae: f64,
    /// Test RMSE.
    pub test_rmse: f64,
    /// Test MAE.
    pub test_mae: f64,
    /// Engine counters and history.
    pub report: RunReport,
}

impl GmrResult {
    /// Pretty-print the revised equations with the canonical names.
    pub fn render(&self, grammar: &RiverGrammar) -> String {
        let mut out = String::new();
        let labels = ["dBPhy/dt", "dBZoo/dt"];
        for (label, eq) in labels.iter().zip(&self.equations) {
            out.push_str(label);
            out.push_str(" = ");
            out.push_str(&eq.display(&grammar.names).to_string());
            out.push('\n');
        }
        out
    }
}

/// The genetic model revision framework bound to a dataset.
pub struct Gmr {
    /// The compiled prior knowledge.
    pub grammar: RiverGrammar,
    /// Training problem (fitness).
    pub train: RiverProblem,
    /// Held-out test problem (reporting only — never touches the search).
    pub test: RiverProblem,
    /// The `gmr-lint` report for the compiled grammar, recorded at
    /// construction. Error-free for the built-in grammar; kept around so
    /// callers customising grammars can inspect what the linter thought.
    pub grammar_lints: Report,
}

impl Gmr {
    /// Bind the framework to a dataset's train/test splits.
    ///
    /// Construction runs the grammar-level lints (reachability, dead pools,
    /// connector/extender discipline); `Error`-level findings are a
    /// specification bug in the prior knowledge, so they panic in debug
    /// builds.
    pub fn new(dataset: &RiverDataset) -> Self {
        let grammar = river_grammar();
        let grammar_lints = gmr_lint::lint_grammar(&grammar.grammar);
        debug_assert!(
            grammar_lints.is_clean(),
            "compiled river grammar fails its own lints:\n{}",
            grammar_lints.render_human()
        );
        Gmr {
            grammar,
            train: RiverProblem::from_dataset(dataset, dataset.train),
            test: RiverProblem::from_dataset(dataset, dataset.test),
            grammar_lints,
        }
    }

    /// Score a genotype on both splits.
    pub fn score(&self, tree: &DerivTree) -> (Vec<Expr>, [f64; 4]) {
        let derived = tree.derived(&self.grammar.grammar);
        let eqs = lower_system(&derived, 2).expect("river genotypes lower to two equations");
        let sys = [eqs[0].clone(), eqs[1].clone()];
        let scores = [
            self.train.rmse(&sys),
            self.train.mae(&sys),
            self.test.rmse(&sys),
            self.test.mae(&sys),
        ];
        (eqs, scores)
    }

    /// One GMR run with the given engine settings. Elite linting follows
    /// the build profile (see [`GmrConfig::lint_elite`]); use
    /// [`Self::run_with_lint`] to choose explicitly.
    pub fn run(&self, gp: &GpConfig) -> GmrResult {
        self.run_with_lint(gp, cfg!(debug_assertions))
    }

    /// One GMR run. With `lint_elite`, each generation's elite phenotypes
    /// pass through the `gmr-lint` battery under the revision policy — a
    /// tripwire for search-layer bugs (a mutated constant escaping its
    /// Table III prior, a lexeme that should never have grounded) — and the
    /// elite's *compiled bytecode* through the abstract interpreter
    /// (`gmr_lint::analyze_system`), so a miscompilation the pipeline's own
    /// debug asserts miss (an unprovable register bound, a state load
    /// hoisted into the prefix) is caught at the generation it appears; an
    /// `Error`-level finding panics.
    pub fn run_with_lint(&self, gp: &GpConfig, lint_elite: bool) -> GmrResult {
        let evaluator = RiverEvaluator::new(self.train.clone());
        let mut engine = Engine::new(
            &self.grammar.grammar,
            &evaluator,
            river_priors(),
            gp.clone(),
        );
        if lint_elite {
            let linter = EquationLinter::river(Policy::Revision);
            engine.set_invariant_hook(move |gen, _, eqs| {
                let report = linter.lint(eqs);
                assert!(
                    report.is_clean(),
                    "generation {gen}: elite phenotype fails static analysis:\n{}",
                    report.render_human()
                );
                let n_vars = linter.intervals.vars.len();
                let n_states = linter.intervals.states.len();
                let sys = gmr_expr::CompiledSystem::compile_checked(
                    eqs,
                    n_vars,
                    n_states,
                    gmr_expr::Tier::Threaded,
                )
                .unwrap_or_else(|e| panic!("generation {gen}: elite does not compile: {e:?}"));
                let analysis = gmr_lint::analyze_system(&sys, &linter.intervals, "elite");
                assert!(
                    analysis.report.is_clean() && analysis.safety.proved(),
                    "generation {gen}: elite bytecode fails verification:\n{}",
                    analysis.report.render_human()
                );
            });
        }
        let report = engine.run();
        let tree = report.best.tree.clone();
        let (equations, [train_rmse, train_mae, test_rmse, test_mae]) = self.score(&tree);
        GmrResult {
            tree,
            equations,
            train_rmse,
            train_mae,
            test_rmse,
            test_mae,
            report,
        }
    }

    /// The paper's multi-run protocol: `cfg.runs` independent runs with
    /// derived seeds. Results are sorted by training RMSE (the selection
    /// criterion available without peeking at the test set).
    pub fn run_many(&self, cfg: &GmrConfig) -> Vec<GmrResult> {
        let mut results: Vec<GmrResult> = (0..cfg.runs.max(1))
            .map(|i| {
                let mut gp = cfg.gp.clone();
                gp.seed = cfg
                    .gp
                    .seed
                    .wrapping_add(0x9e37_79b9u64.wrapping_mul(i as u64 + 1));
                self.run_with_lint(&gp, cfg.lint_elite)
            })
            .collect();
        results.sort_by(|a, b| a.train_rmse.total_cmp(&b.train_rmse));
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_bio::manual::manual_system;
    use gmr_hydro::{generate, SyntheticConfig};

    fn small_dataset() -> gmr_hydro::RiverDataset {
        generate(&SyntheticConfig {
            start_year: 1996,
            end_year: 1998,
            train_end_year: 1997,
            ..Default::default()
        })
    }

    fn tiny_gp(seed: u64) -> GpConfig {
        GpConfig {
            pop_size: 16,
            max_gen: 4,
            local_search_steps: 1,
            threads: 2,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn gmr_run_produces_scored_result() {
        let ds = small_dataset();
        let gmr = Gmr::new(&ds);
        let res = gmr.run(&tiny_gp(1));
        assert_eq!(res.equations.len(), 2);
        assert!(res.train_rmse.is_finite());
        assert!(res.test_rmse.is_finite());
        assert!(res.train_rmse > 0.0);
        res.tree.validate(&gmr.grammar.grammar).unwrap();
    }

    #[test]
    fn gmr_beats_or_matches_unrevised_manual_on_training() {
        let ds = small_dataset();
        let gmr = Gmr::new(&ds);
        let manual = manual_system();
        let manual_rmse = gmr.train.rmse(&manual);
        let res = gmr.run(&tiny_gp(2));
        assert!(
            res.train_rmse <= manual_rmse,
            "revision should not be worse than the seed: {} vs {manual_rmse}",
            res.train_rmse
        );
    }

    #[test]
    fn run_many_sorted_by_train_rmse() {
        let ds = small_dataset();
        let gmr = Gmr::new(&ds);
        let cfg = GmrConfig {
            gp: tiny_gp(3),
            runs: 3,
            ..GmrConfig::default()
        };
        let results = gmr.run_many(&cfg);
        assert_eq!(results.len(), 3);
        for w in results.windows(2) {
            assert!(w[0].train_rmse <= w[1].train_rmse);
        }
    }

    #[test]
    fn grammar_lints_are_recorded_and_clean() {
        let ds = small_dataset();
        let gmr = Gmr::new(&ds);
        assert!(
            gmr.grammar_lints.is_clean(),
            "{}",
            gmr.grammar_lints.render_human()
        );
    }

    #[test]
    fn elite_linting_observes_without_perturbing_the_search() {
        let ds = small_dataset();
        let gmr = Gmr::new(&ds);
        let mut gp = tiny_gp(5);
        gp.threads = 1; // exact-trajectory comparison needs determinism
        let linted = gmr.run_with_lint(&gp, true);
        let plain = gmr.run_with_lint(&gp, false);
        assert_eq!(linted.tree, plain.tree);
        assert_eq!(linted.train_rmse, plain.train_rmse);
    }

    #[test]
    fn render_mentions_states() {
        let ds = small_dataset();
        let gmr = Gmr::new(&ds);
        let res = gmr.run(&tiny_gp(4));
        let text = res.render(&gmr.grammar);
        assert!(text.contains("dBPhy/dt ="));
        assert!(text.contains("dBZoo/dt ="));
        assert!(text.contains("BPhy"));
    }
}
