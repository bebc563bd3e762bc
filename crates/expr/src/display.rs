//! Human-readable rendering of expression trees.
//!
//! The paper's headline advantage over black-box models is interpretability:
//! a revised model *is* an equation an ecologist can read (eqs. 7–8 show two
//! such revisions). This module renders an [`Expr`] as infix text given a
//! [`NameTable`] that maps variable/state/parameter indices to their domain
//! names. Output round-trips through [`crate::parse`](mod@crate::parse).
//!
//! Parameters render as `name[value]` so a revised model displays both the
//! structure and the calibrated constants, e.g.
//! `BPhy * (CUA[1.89] - 1.5)`.

use crate::ast::{BinOp, Expr, UnOp};
use std::fmt;

/// Maps expression indices to display names. The domain layer (gmr-bio)
/// provides the canonical table for the river model.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// Names for temporal-variable indices (`Expr::Var`).
    pub vars: Vec<String>,
    /// Names for state-variable indices (`Expr::State`).
    pub states: Vec<String>,
    /// Names for parameter kinds (`Expr::Param`).
    pub params: Vec<String>,
}

impl NameTable {
    /// Build a table from string slices.
    pub fn new(vars: &[&str], states: &[&str], params: &[&str]) -> Self {
        NameTable {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            states: states.iter().map(|s| s.to_string()).collect(),
            params: params.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn var(&self, i: u8) -> String {
        self.vars
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("V#{i}"))
    }

    fn state(&self, i: u8) -> String {
        self.states
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("S#{i}"))
    }

    fn param(&self, k: u16) -> String {
        self.params
            .get(k as usize)
            .cloned()
            .unwrap_or_else(|| format!("C#{k}"))
    }

    /// Find a variable index by name. A name past position 255 has no
    /// `u8` index, so it is not found.
    pub fn var_index(&self, name: &str) -> Option<u8> {
        let i = self.vars.iter().position(|v| v == name)?;
        u8::try_from(i).ok()
    }

    /// Find a state index by name (`None` past position 255).
    pub fn state_index(&self, name: &str) -> Option<u8> {
        let i = self.states.iter().position(|v| v == name)?;
        u8::try_from(i).ok()
    }

    /// Find a parameter kind by name (`None` past position 65535).
    pub fn param_kind(&self, name: &str) -> Option<u16> {
        let i = self.params.iter().position(|v| v == name)?;
        u16::try_from(i).ok()
    }
}

/// Operator precedence for minimal parenthesisation.
fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Add | BinOp::Sub => 1,
        BinOp::Mul | BinOp::Div => 2,
        // Function-call syntax; never needs parens around itself.
        BinOp::Min | BinOp::Max | BinOp::Pow => 3,
    }
}

/// Display adapter tying an expression to a name table.
pub struct ExprDisplay<'a> {
    expr: &'a Expr,
    names: &'a NameTable,
}

impl Expr {
    /// Render with the given name table: `expr.display(&names).to_string()`.
    pub fn display<'a>(&'a self, names: &'a NameTable) -> ExprDisplay<'a> {
        ExprDisplay { expr: self, names }
    }
}

fn write_expr(
    f: &mut fmt::Formatter<'_>,
    e: &Expr,
    names: &NameTable,
    parent_prec: u8,
    is_right: bool,
) -> fmt::Result {
    match e {
        Expr::Num(v) => write!(f, "{v}"),
        Expr::Param(p) => write!(f, "{}[{}]", names.param(p.kind), p.value),
        Expr::Var(i) => write!(f, "{}", names.var(*i)),
        Expr::State(i) => write!(f, "{}", names.state(*i)),
        Expr::Unary(UnOp::Neg, a) => {
            // A negated literal must not print as `-3` — that would re-parse
            // as a literal, not a Neg node; use function syntax instead.
            if matches!(**a, Expr::Num(_)) {
                write!(f, "neg(")?;
                write_expr(f, a, names, 0, false)?;
                return write!(f, ")");
            }
            write!(f, "-")?;
            // Negation binds tighter than +/- but looser than a leaf;
            // always parenthesise compound operands for clarity.
            if matches!(**a, Expr::Binary(..)) {
                write!(f, "(")?;
                write_expr(f, a, names, 0, false)?;
                write!(f, ")")
            } else {
                write_expr(f, a, names, 3, false)
            }
        }
        Expr::Unary(op, a) => {
            write!(f, "{}(", op.symbol())?;
            write_expr(f, a, names, 0, false)?;
            write!(f, ")")
        }
        Expr::Binary(op @ (BinOp::Min | BinOp::Max | BinOp::Pow), a, b) => {
            write!(f, "{}(", op.symbol())?;
            write_expr(f, a, names, 0, false)?;
            write!(f, ", ")?;
            write_expr(f, b, names, 0, false)?;
            write!(f, ")")
        }
        Expr::Binary(op, a, b) => {
            let p = prec(*op);
            // Need parens when we bind looser than the parent, or equally
            // tight on the right of a non-associative operator (a - (b - c)).
            let needs = p < parent_prec || (p == parent_prec && is_right);
            if needs {
                write!(f, "(")?;
            }
            write_expr(f, a, names, p, false)?;
            write!(f, " {} ", op.symbol())?;
            write_expr(
                f,
                b,
                names,
                p + u8::from(matches!(op, BinOp::Sub | BinOp::Div)),
                true,
            )?;
            if needs {
                write!(f, ")")?;
            }
            Ok(())
        }
    }
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self.expr, self.names, 0, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ParamSlot;

    fn names() -> NameTable {
        NameTable::new(&["Vlgt", "Vtmp"], &["BPhy", "BZoo"], &["CUA", "CBRA"])
    }

    #[test]
    fn renders_leaves() {
        let n = names();
        assert_eq!(Expr::Var(0).display(&n).to_string(), "Vlgt");
        assert_eq!(Expr::State(1).display(&n).to_string(), "BZoo");
        assert_eq!(
            Expr::Param(ParamSlot {
                kind: 0,
                value: 1.89
            })
            .display(&n)
            .to_string(),
            "CUA[1.89]"
        );
        assert_eq!(Expr::Num(2.5).display(&n).to_string(), "2.5");
    }

    #[test]
    fn precedence_parens() {
        let n = names();
        let e = Expr::bin(
            BinOp::Mul,
            Expr::State(0),
            Expr::bin(BinOp::Sub, Expr::Var(1), Expr::Num(1.5)),
        );
        assert_eq!(e.display(&n).to_string(), "BPhy * (Vtmp - 1.5)");
        let e2 = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Var(0), Expr::Var(1)),
            Expr::Num(1.0),
        );
        assert_eq!(e2.display(&n).to_string(), "Vlgt * Vtmp + 1");
    }

    #[test]
    fn non_associative_right_operand() {
        let n = names();
        // a - (b - c) must keep its parens.
        let e = Expr::bin(
            BinOp::Sub,
            Expr::Var(0),
            Expr::bin(BinOp::Sub, Expr::Var(1), Expr::Num(1.0)),
        );
        assert_eq!(e.display(&n).to_string(), "Vlgt - (Vtmp - 1)");
        // (a - b) - c prints without parens.
        let e2 = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::Var(0), Expr::Var(1)),
            Expr::Num(1.0),
        );
        assert_eq!(e2.display(&n).to_string(), "Vlgt - Vtmp - 1");
    }

    #[test]
    fn function_syntax() {
        let n = names();
        let e = Expr::bin(BinOp::Min, Expr::Var(0), Expr::Var(1));
        assert_eq!(e.display(&n).to_string(), "min(Vlgt, Vtmp)");
        let l = Expr::un(UnOp::Log, Expr::Var(0));
        assert_eq!(l.display(&n).to_string(), "log(Vlgt)");
    }

    #[test]
    fn negation() {
        let n = names();
        let e = Expr::un(
            UnOp::Neg,
            Expr::bin(BinOp::Add, Expr::Var(0), Expr::Num(1.0)),
        );
        assert_eq!(e.display(&n).to_string(), "-(Vlgt + 1)");
        let simple = Expr::un(UnOp::Neg, Expr::Var(0));
        assert_eq!(simple.display(&n).to_string(), "-Vlgt");
    }

    #[test]
    fn unknown_indices_fall_back() {
        let n = names();
        assert_eq!(Expr::Var(9).display(&n).to_string(), "V#9");
        assert_eq!(Expr::State(9).display(&n).to_string(), "S#9");
    }
}
