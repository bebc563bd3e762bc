//! Static analysis for GMR grammars and evolved equations.
//!
//! The evolutionary layers of this workspace make sure individuals are
//! *well-formed* (derivation trees validate, lowering succeeds, evaluation
//! is total). This crate checks that they — and the prior knowledge they
//! grow from — are *sensible*:
//!
//! * [`units`] / [`infer`] — **dimensional analysis**: the Table III/IV unit
//!   strings are parsed into rational-exponent unit vectors and propagated
//!   bottom-up through expressions, flagging unit-inconsistent additions and
//!   comparisons, transcendental functions of dimensional quantities, and
//!   silent scale clashes (`ug` vs `mg`);
//! * [`grammar_lints`] — **grammar lints**: unreachable elementary trees,
//!   dead lexeme pools, inert adjunction sites, operator lexemes in operand
//!   pools, and the river grammar's connector/extender discipline checked
//!   against Table II;
//! * [`interval`] — **numeric-domain lints**: interval analysis over the
//!   protected evaluation semantics, flagging divisions whose denominator
//!   range straddles zero, `exp` overflow into the clamp, constants outside
//!   their Table III priors, and simplifiable constant subtrees;
//! * [`absint`] — **bytecode verification**: abstract interpretation over
//!   the compiled register programs of a
//!   [`CompiledSystem`](gmr_expr::CompiledSystem) — interval + non-finite
//!   taint, a state-independence proof for the hoisted prefix,
//!   independent dead-code detection, and machine-checked bounds proofs for
//!   the VM's `unsafe` register accesses (emitted as a
//!   [`SafetyReport`](absint::SafetyReport)).
//!
//! Everything funnels into the [`diag`] framework (severities, node-path
//!   locations, human and JSON rendering). The `gmr-lint` binary runs the
//! whole battery on the built-in river grammar and expert equations.

pub mod absint;
pub mod arity;
pub mod diag;
pub mod grammar_lints;
pub mod infer;
pub mod interval;
pub mod units;

pub use absint::{
    analyze_system, env_for_arity, AbsVal, SafetyObligation, SafetyReport, SystemAnalysis,
};
pub use arity::check_expr_arity;
pub use diag::{Diagnostic, Location, Report, Severity};
pub use grammar_lints::{grammar_diagnostics, river_discipline_diagnostics};
pub use infer::{infer_units, Inferred, Policy, UnitEnv};
pub use interval::{analyze_intervals, Interval, IntervalEnv};
pub use units::{Ratio, Unit};

use gmr_expr::Expr;
use gmr_tag::Grammar;

/// Canonical labels for the two river equations.
pub const EQUATION_LABELS: [&str; 2] = ["dBPhy/dt", "dBZoo/dt"];

/// Run every grammar-level lint: structural analysis plus the river
/// connector/extender discipline.
pub fn lint_grammar(grammar: &Grammar) -> Report {
    let mut report = grammar_diagnostics(grammar);
    report.extend(river_discipline_diagnostics(grammar));
    report
}

/// An equation linter bundling the unit and interval environments with a
/// severity policy, so callers (the CLI, the GP elite hook) lint repeatedly
/// without rebuilding the tables.
#[derive(Debug, Clone)]
pub struct EquationLinter {
    /// Leaf units.
    pub units: UnitEnv,
    /// Leaf value ranges.
    pub intervals: IntervalEnv,
    /// How harshly dimensional findings are graded.
    pub policy: Policy,
}

impl EquationLinter {
    /// The river problem's environments under the given policy.
    pub fn river(policy: Policy) -> EquationLinter {
        EquationLinter {
            units: UnitEnv::river(),
            intervals: IntervalEnv::river(),
            policy,
        }
    }

    /// Lint a system of equations. Equation `i` is labelled with
    /// [`EQUATION_LABELS`] when available, `eq<i>` otherwise.
    pub fn lint(&self, eqs: &[Expr]) -> Report {
        let mut report = Report::new();
        for (i, eq) in eqs.iter().enumerate() {
            let label = EQUATION_LABELS
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("eq{i}"));
            // Arity first: the unit environments double as the name-table
            // arities, and an out-of-range index would previously read a
            // silent 0.0 — now a compile error in the VMs and an Error here.
            report.extend(check_expr_arity(
                eq,
                self.units.vars.len(),
                self.units.states.len(),
                &label,
            ));
            let (_, units) = infer_units(eq, &self.units, self.policy, &label);
            report.extend(units);
            let (_, domain) = analyze_intervals(eq, &self.intervals, &label);
            report.extend(domain);
        }
        report
    }
}

/// Lint the built-in river grammar and the expert equations under the
/// strict policy — the acceptance gate run by CI and the `--builtin` CLI
/// mode. Clean by construction: the expert system is dimensionally
/// consistent and the grammar obeys its own discipline.
pub fn lint_builtin() -> Report {
    let rg = gmr_bio::river_grammar();
    let mut report = lint_grammar(&rg.grammar);
    let eqs = gmr_bio::manual_system();
    report.extend(EquationLinter::river(Policy::Strict).lint(&eqs));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_battery_is_error_free() {
        let report = lint_builtin();
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.count(Severity::Warn), 0, "{}", report.render_human());
        // The deliberately inert S/Exp adjunction sites are the only notes.
        assert!(report.count(Severity::Info) > 0);
    }

    #[test]
    fn linter_labels_equations_canonically() {
        let linter = EquationLinter::river(Policy::Revision);
        // BPhy + Vtmp in slot 1 → the label must be dBZoo/dt.
        let bad = Expr::bin(
            gmr_expr::BinOp::Add,
            Expr::State(0),
            Expr::Var(gmr_hydro::vars::VTMP),
        );
        let report = linter.lint(&[Expr::Num(0.0), bad]);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(matches!(
            &report.diagnostics[0].location,
            Location::Expr { equation, .. } if equation == "dBZoo/dt"
        ));
    }

    #[test]
    fn revision_policy_keeps_legal_splices_below_error() {
        // The canonical Ext1 revision: manual flux + Vcd. Legal for the
        // search, dimension-bending, must not be an Error under Revision.
        let [dbphy, dbzoo] = gmr_bio::manual_system();
        let revised = Expr::bin(gmr_expr::BinOp::Add, dbphy, Expr::Var(gmr_hydro::vars::VCD));
        let linter = EquationLinter::river(Policy::Revision);
        let report = linter.lint(&[revised, dbzoo]);
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report.count(Severity::Warn) > 0);
    }
}
