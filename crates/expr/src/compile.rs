//! The arity check every compilation path shares: a `Var`/`State` index
//! must exist under the name-table arities a system is compiled against.

use crate::ast::Expr;
use std::fmt;

/// A variable or state index that cannot exist under the name-table
/// arities the expression was compiled against. Historically the VMs
/// papered over this with a silent `0.0` read; it is now a compile-time
/// error, because a miscompiled index always indicates a mis-assembled
/// grammar or context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// `Var(index)` with only `arity` temporal variables available.
    VarOutOfRange { index: u8, arity: usize },
    /// `State(index)` with only `arity` state variables available.
    StateOutOfRange { index: u8, arity: usize },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::VarOutOfRange { index, arity } => write!(
                f,
                "temporal variable index {index} out of range (arity {arity})"
            ),
            CompileError::StateOutOfRange { index, arity } => {
                write!(
                    f,
                    "state variable index {index} out of range (arity {arity})"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Walk `expr` and verify every `Var`/`State` index against the name-table
/// arities. Shared by the register VM's `CompiledSystem::compile_checked`
/// and the `gmr-lint` arity lint.
pub fn check_arity(expr: &Expr, n_vars: usize, n_states: usize) -> Result<(), CompileError> {
    match expr {
        Expr::Num(_) | Expr::Param(_) => Ok(()),
        Expr::Var(i) => {
            if (*i as usize) < n_vars {
                Ok(())
            } else {
                Err(CompileError::VarOutOfRange {
                    index: *i,
                    arity: n_vars,
                })
            }
        }
        Expr::State(i) => {
            if (*i as usize) < n_states {
                Ok(())
            } else {
                Err(CompileError::StateOutOfRange {
                    index: *i,
                    arity: n_states,
                })
            }
        }
        Expr::Unary(_, a) => check_arity(a, n_vars, n_states),
        Expr::Binary(_, a, b) => {
            check_arity(a, n_vars, n_states)?;
            check_arity(b, n_vars, n_states)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, ParamSlot};
    use crate::eval::EvalContext;
    use crate::vm::{CompiledSystem, Tier};

    #[test]
    fn compile_checked_enforces_arity() {
        // Reads Var(0), Var(1) and State(0).
        let e = Expr::bin(
            BinOp::Mul,
            Expr::State(0),
            Expr::bin(
                BinOp::Sub,
                Expr::Param(ParamSlot {
                    kind: 3,
                    value: 1.89,
                }),
                Expr::bin(BinOp::Div, Expr::Var(1), Expr::Var(0)),
            ),
        );
        assert_eq!(check_arity(&e, 2, 1), Ok(()));
        assert_eq!(
            check_arity(&e, 1, 1),
            Err(CompileError::VarOutOfRange { index: 1, arity: 1 })
        );
        assert_eq!(
            check_arity(&e, 2, 0),
            Err(CompileError::StateOutOfRange { index: 0, arity: 0 })
        );
    }

    #[test]
    #[should_panic(expected = "forcing vector too short")]
    fn out_of_range_load_panics_instead_of_reading_zero() {
        // Compiled without the arity check, a system reading `Var(7)` must
        // refuse a 3-variable context rather than read a silent zero.
        let sys = CompiledSystem::compile(&[Expr::Var(7)], Tier::Threaded);
        let ctx = EvalContext {
            vars: &[10.0, 20.0, 30.0],
            state: &[],
        };
        sys.eval_step(&ctx, &mut sys.scratch(), &mut [0.0]);
    }
}
