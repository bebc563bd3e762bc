//! Tree-walking evaluation with protected numeric semantics.
//!
//! Evolved expressions are arbitrary compositions of arithmetic and
//! transcendental operators, so naive IEEE semantics would regularly produce
//! `inf`/`NaN` (division by a vanishing denominator, `exp` of a huge evolved
//! exponent, `log` of a negative nutrient residual, …) and poison an entire
//! multi-year simulation. Standard GP practice — and what the GMR system
//! needs for its fitness landscape to stay informative — is *protected*
//! operators:
//!
//! * `protected_div(x, y)` returns `0` when `|y|` underflows,
//! * `protected_log(x)` evaluates `ln(max(|x|, ε))`,
//! * `protected_exp(x)` clamps the exponent so the result stays finite.
//!
//! Both the interpreter here and the bytecode VM in [`crate::compile`] use
//! exactly the same three functions, which is what makes the
//! compile-vs-interpret equivalence property (tested with proptest) hold
//! bit-for-bit.

use crate::ast::{BinOp, Expr, UnOp};

/// Smallest denominator magnitude before division is considered singular.
pub const DIV_EPS: f64 = 1e-12;
/// Floor applied inside `protected_log`.
pub const LOG_EPS: f64 = 1e-12;
/// Clamp applied to the argument of `protected_exp` (e^50 ≈ 5.18e21 keeps
/// downstream arithmetic finite without distorting plausible dynamics).
pub const EXP_CLAMP: f64 = 50.0;

/// Division that returns `0` for singular denominators.
#[inline(always)]
pub fn protected_div(x: f64, y: f64) -> f64 {
    if y.abs() < DIV_EPS {
        0.0
    } else {
        x / y
    }
}

/// Natural log of `max(|x|, ε)` — total on all of ℝ.
#[inline(always)]
pub fn protected_log(x: f64) -> f64 {
    x.abs().max(LOG_EPS).ln()
}

/// `exp` with the argument clamped to `[-EXP_CLAMP, EXP_CLAMP]`.
#[inline(always)]
pub fn protected_exp(x: f64) -> f64 {
    x.clamp(-EXP_CLAMP, EXP_CLAMP).exp()
}

/// Protected power: `|x|^y`, guarded against overflow like `protected_exp`.
#[inline(always)]
pub fn protected_pow(x: f64, y: f64) -> f64 {
    let base = x.abs().max(LOG_EPS);
    protected_exp(y * base.ln())
}

/// `min` with the tie rule every evaluation path shares: the *first*
/// operand on a tie (`min(-0.0, 0.0)` is `-0.0`), the other one when an
/// operand is NaN. `f64::min` (IEEE 754-2008 `minNum`) leaves the zero of
/// a tie open, so the interpreter, thunks and lane kernels all call this.
#[inline(always)]
pub fn min_op(x: f64, y: f64) -> f64 {
    if y < x || x.is_nan() {
        y
    } else {
        x
    }
}

/// `max` under [`min_op`]'s tie rule.
#[inline(always)]
pub fn max_op(x: f64, y: f64) -> f64 {
    if y > x || x.is_nan() {
        y
    } else {
        x
    }
}

/// Apply a binary operator with protected semantics.
#[inline(always)]
pub fn apply_bin(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => protected_div(a, b),
        BinOp::Min => min_op(a, b),
        BinOp::Max => max_op(a, b),
        BinOp::Pow => protected_pow(a, b),
    }
}

/// Apply a unary operator with protected semantics.
#[inline(always)]
pub fn apply_un(op: UnOp, a: f64) -> f64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Log => protected_log(a),
        UnOp::Exp => protected_exp(a),
    }
}

/// Per-step evaluation context: the temporal forcing vector (one slot per
/// [`Expr::Var`] index) and the integrated state vector (one slot per
/// [`Expr::State`] index).
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    /// Temporal variable values at the current time step.
    pub vars: &'a [f64],
    /// State variable values at the current time step.
    pub state: &'a [f64],
}

impl Expr {
    /// Evaluate the tree under `ctx`.
    ///
    /// ```
    /// use gmr_expr::{parse, EvalContext, NameTable};
    ///
    /// let names = NameTable::new(&["Vtmp"], &["BPhy"], &["CUA"]);
    /// let eq = parse("BPhy * (CUA[0.5] - Vtmp / 40)", &names, |_| 0.0).unwrap();
    /// let ctx = EvalContext { vars: &[20.0], state: &[10.0] };
    /// assert_eq!(eq.eval(&ctx), 10.0 * (0.5 - 0.5));
    /// ```
    ///
    /// Out-of-range variable or state indices evaluate to `0.0`; the domain
    /// layer validates index ranges when it builds grammars, so an
    /// out-of-range read here indicates a mis-assembled context and `0` keeps
    /// the simulation well-defined rather than panicking mid-run.
    pub fn eval(&self, ctx: &EvalContext<'_>) -> f64 {
        match self {
            Expr::Num(v) => *v,
            Expr::Param(p) => p.value,
            Expr::Var(i) => ctx.vars.get(*i as usize).copied().unwrap_or(0.0),
            Expr::State(i) => ctx.state.get(*i as usize).copied().unwrap_or(0.0),
            Expr::Unary(op, a) => apply_un(*op, a.eval(ctx)),
            Expr::Binary(op, a, b) => apply_bin(*op, a.eval(ctx), b.eval(ctx)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ParamSlot;

    const CTX: EvalContext<'static> = EvalContext {
        vars: &[10.0, 20.0, 30.0],
        state: &[2.0, 4.0],
    };

    #[test]
    fn literals_and_leaves() {
        assert_eq!(Expr::Num(3.5).eval(&CTX), 3.5);
        assert_eq!(Expr::Var(1).eval(&CTX), 20.0);
        assert_eq!(Expr::State(0).eval(&CTX), 2.0);
        assert_eq!(
            Expr::Param(ParamSlot {
                kind: 0,
                value: 0.19
            })
            .eval(&CTX),
            0.19
        );
    }

    #[test]
    fn arithmetic() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::Var(0),
            Expr::bin(BinOp::Add, Expr::State(1), Expr::Num(1.0)),
        );
        assert_eq!(e.eval(&CTX), 10.0 * 5.0);
    }

    #[test]
    fn protected_division_by_zero() {
        let e = Expr::bin(BinOp::Div, Expr::Num(7.0), Expr::Num(0.0));
        assert_eq!(e.eval(&CTX), 0.0);
        assert_eq!(protected_div(7.0, 1e-13), 0.0);
        assert_eq!(protected_div(7.0, 2.0), 3.5);
    }

    #[test]
    fn protected_log_of_nonpositive() {
        assert!(protected_log(0.0).is_finite());
        assert!(protected_log(-5.0).is_finite());
        assert_eq!(protected_log(-5.0), 5.0_f64.ln());
    }

    #[test]
    fn protected_exp_never_overflows() {
        assert!(protected_exp(1e9).is_finite());
        assert!(protected_exp(-1e9) > 0.0);
        assert_eq!(protected_exp(1.0), 1.0_f64.exp());
    }

    #[test]
    fn protected_pow_stays_finite() {
        assert!(protected_pow(1e10, 1e10).is_finite());
        assert!((protected_pow(2.0, 3.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn min_max() {
        let lo = Expr::bin(BinOp::Min, Expr::Var(0), Expr::Var(1));
        let hi = Expr::bin(BinOp::Max, Expr::Var(0), Expr::Var(1));
        assert_eq!(lo.eval(&CTX), 10.0);
        assert_eq!(hi.eval(&CTX), 20.0);
        // A tie returns the first operand, a NaN operand the other one.
        let bits = |v: f64| v.to_bits();
        for (x, y) in [(-0.0, 0.0), (0.0, -0.0)] {
            assert_eq!((bits(min_op(x, y)), bits(max_op(x, y))), (bits(x), bits(x)));
        }
        assert_eq!((min_op(f64::NAN, 2.0), max_op(2.0, f64::NAN)), (2.0, 2.0));
    }

    #[test]
    fn out_of_range_indices_read_zero() {
        assert_eq!(Expr::Var(200).eval(&CTX), 0.0);
        assert_eq!(Expr::State(200).eval(&CTX), 0.0);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(Expr::un(UnOp::Neg, Expr::Num(2.0)).eval(&CTX), -2.0);
        assert_eq!(Expr::un(UnOp::Exp, Expr::Num(0.0)).eval(&CTX), 1.0);
        assert_eq!(Expr::un(UnOp::Log, Expr::Num(1.0)).eval(&CTX), 0.0);
    }

    #[test]
    fn deep_nesting_stays_finite() {
        // exp(exp(exp(x))) must not overflow thanks to clamping.
        let e = Expr::un(
            UnOp::Exp,
            Expr::un(UnOp::Exp, Expr::un(UnOp::Exp, Expr::Num(10.0))),
        );
        assert!(e.eval(&CTX).is_finite());
    }
}
