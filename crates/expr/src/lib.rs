//! Expression-tree substrate for dynamic process equations.
//!
//! This crate is the lowest layer of the GMR reproduction. A dynamic process
//! (a differential equation such as the phytoplankton model in the paper's
//! eq. 1) is *lowered* from a TAG derivation tree into an [`Expr`]: a plain
//! expression AST over
//!
//! * numeric literals,
//! * **constant parameters** ([`Expr::Param`]) — physiological rates such as
//!   the maximum phytoplankton growth rate, carrying a mutable value that
//!   Gaussian mutation updates,
//! * **temporal variables** ([`Expr::Var`]) — external forcings (light,
//!   temperature, nutrients, …) read from the observed data at each step,
//! * **state variables** ([`Expr::State`]) — the integrated quantities
//!   (phytoplankton and zooplankton biomass),
//! * unary and binary operators (including the `min`/`max` forms the expert
//!   model uses for Liebig-style nutrient limitation).
//!
//! On top of the AST the crate provides:
//!
//! * [`eval`](Expr::eval) — a straightforward tree-walking interpreter with
//!   *protected* semantics for division, logarithm and exponentiation so that
//!   evolved expressions can never poison a simulation with `inf`/`NaN`;
//! * [`simplify()`](simplify::simplify) — algebraic simplification and canonical ordering of
//!   commutative operators, which both shrinks evolved trees and raises the
//!   hit rate of the fitness cache (§III-D of the paper);
//! * [`mod@vm`] — the optimizing register VM, the Rust substitute for the
//!   paper's G++ runtime compilation (pay once per system, then evaluate
//!   thousands of time steps cheaply): it compiles a whole system once
//!   (cross-equation CSE, a fixed set of fused superinstructions, a
//!   columnar state-independent prefix) into threaded code, at the bit-exact
//!   [`Tier::Threaded`] or the relaxed [`Tier::Simd`];
//! * [`check_arity`] — the `Var`/`State` index check every compilation
//!   path shares;
//! * a canonical structural [`hash`](Expr::structural_hash) used as the
//!   fitness-cache key;
//! * a [`parser`](parse::parse()) and pretty [`printer`](display) for human
//!   round-tripping in examples and tests.

pub mod ast;
pub mod compile;
pub mod display;
pub mod eval;
pub mod fastmath;
pub mod hash;
pub mod parse;
pub mod simd;
pub mod simplify;
mod threaded;
pub mod vm;

pub use ast::{BinOp, Expr, ParamSlot, UnOp};
pub use compile::{check_arity, CompileError};
pub use display::NameTable;
pub use eval::{protected_div, protected_exp, protected_log, EvalContext};
pub use hash::TreeKey;
pub use parse::{parse, parse_with_defaults, ParseError};
pub use simplify::simplify;
pub use vm::{
    CompiledSystem, Fidelity, FidelityPolicy, LaneForcing, LaneSession, PrefixTable, RInstr,
    RegProgram, SystemScratch, SystemSession, Tier, LANES,
};
