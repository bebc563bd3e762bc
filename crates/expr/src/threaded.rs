//! Threaded code: an [`RInstr`] sequence compiled into a flat array of
//! monomorphized thunks — how every scalar core and prefix of a
//! [`CompiledSystem`](crate::vm::CompiledSystem) runs.
//!
//! Interpreting the register code would pay *two* dispatches per
//! arithmetic instruction in the sequential core: a `match` over `RInstr`
//! and, inside `apply_bin`/`apply_un`, a second `match` over the
//! operator. For the ~4700-step Euler recurrence those branches — not the
//! arithmetic — dominate. This module removes both: at compile time every
//! instruction is resolved to one concrete function pointer (`t_bin_mul`,
//! `t_vbl_add`, …) over a small argument pack, and the steady-state inner
//! loop is nothing but
//!
//! ```text
//! for t in &thunks { (t.f)(&t.args, regs, vars, state) }
//! ```
//!
//! — an indirect call the branch predictor learns per call site, with
//! the operand fetch/compute/store code of each thunk fully
//! monomorphized (no operator match, no per-operand bounds checks).
//!
//! # Safety architecture
//!
//! Thunks use raw-pointer register access, so the proof that every
//! access is in bounds must be airtight:
//!
//! * A [`ThreadedProgram`] is only ever built by
//!   [`CompiledSystem::compile`](crate::vm::CompiledSystem::compile)
//!   from a [`RegProgram`] that passed `validate()` — every register
//!   operand `< n_regs`, every write outside the pinned region.
//! * `build` *re-derives* the `vars`/`state` arity floors from the
//!   instruction stream itself instead of trusting the program's
//!   cached fields, so a stale field cannot weaken the runtime assert.
//! * [`ThreadedProgram::run`] asserts `regs.len() == n_regs`,
//!   `vars.len() >= needs_vars`, `state.len() >= needs_states` on every
//!   call — after which each thunk's accesses are in bounds by the
//!   compile-time facts above.
//!
//! `lint::absint` re-proves the same register and arity bounds over the
//! public accessors as machine-checked `SafetyObligation`s (site class
//! "threaded thunks"), so the proof is not only in this comment.
//!
//! The `fast` flag selects [`crate::fastmath`] transcendentals instead
//! of the protected libm ones — the relaxed half of the SIMD tier; with
//! `fast = false` thunk arithmetic is the *identical* protected-operator
//! sequence of the tree interpreter, which is what makes the threaded
//! tier bit-exact (property-tested in `tests/properties.rs`).

use crate::ast::{BinOp, UnOp};
use crate::eval::{protected_div, protected_exp, protected_log, protected_pow};
use crate::fastmath::{fast_exp, fast_log, fast_pow};
use crate::vm::{RInstr, RegProgram};

/// Argument pack of one thunk. Field meaning depends on the thunk:
/// register indices for `a`/`b`/`c`, a forcing/state index riding in
/// `a` or `b` for the load-fused forms, an immediate in `imm`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TArgs {
    dst: u16,
    a: u16,
    b: u16,
    c: u16,
    imm: f64,
}

/// One monomorphized instruction. `f` is chosen at build time; calling
/// it is sound only under the `run` preconditions (see module docs).
type TFn = unsafe fn(&TArgs, *mut f64, *const f64, *const f64);

#[derive(Clone, Copy)]
pub(crate) struct Thunk {
    f: TFn,
    args: TArgs,
}

impl std::fmt::Debug for Thunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thunk").field("args", &self.args).finish()
    }
}

/// A register program compiled to threaded code. Holds its own copies of
/// the bounds facts the runtime asserts rely on.
#[derive(Debug, Clone)]
pub(crate) struct ThreadedProgram {
    thunks: Vec<Thunk>,
    n_regs: usize,
    needs_vars: usize,
    needs_states: usize,
}

// SAFETY (shared by every thunk body below): thunks are only invoked by
// `ThreadedProgram::run`, which asserts `regs.len() == n_regs`,
// `vars.len() >= needs_vars` and `state.len() >= needs_states`. Register
// operands in `TArgs` came from a `RegProgram` that passed `validate()`
// (all `< n_regs`), and every `vars`/`state` index is `< needs_vars` /
// `< needs_states` because `build` derives those floors as
// `max(index) + 1` over the same instruction stream. Hence every
// pointer offset below is in bounds. Operands are read into locals
// before the destination store, preserving in-place-update semantics.
macro_rules! t_bin {
    ($name:ident, $f:expr) => {
        // SAFETY: see the shared thunk argument above.
        unsafe fn $name(t: &TArgs, r: *mut f64, _v: *const f64, _s: *const f64) {
            // SAFETY: see the shared thunk argument above.
            unsafe {
                let x = *r.add(t.a as usize);
                let y = *r.add(t.b as usize);
                *r.add(t.dst as usize) = $f(x, y);
            }
        }
    };
}

macro_rules! t_un {
    ($name:ident, $f:expr) => {
        // SAFETY: see the shared thunk argument above.
        unsafe fn $name(t: &TArgs, r: *mut f64, _v: *const f64, _s: *const f64) {
            // SAFETY: see the shared thunk argument above.
            unsafe {
                let x = *r.add(t.a as usize);
                *r.add(t.dst as usize) = $f(x);
            }
        }
    };
}

/// Fused var-load left: `r[dst] = f(vars[a], r[b])`.
macro_rules! t_vbl {
    ($name:ident, $f:expr) => {
        // SAFETY: see the shared thunk argument above.
        unsafe fn $name(t: &TArgs, r: *mut f64, v: *const f64, _s: *const f64) {
            // SAFETY: see the shared thunk argument above.
            unsafe {
                let x = *v.add(t.a as usize);
                let y = *r.add(t.b as usize);
                *r.add(t.dst as usize) = $f(x, y);
            }
        }
    };
}

/// Fused var-load right: `r[dst] = f(r[a], vars[b])`.
macro_rules! t_vbr {
    ($name:ident, $f:expr) => {
        // SAFETY: see the shared thunk argument above.
        unsafe fn $name(t: &TArgs, r: *mut f64, v: *const f64, _s: *const f64) {
            // SAFETY: see the shared thunk argument above.
            unsafe {
                let x = *r.add(t.a as usize);
                let y = *v.add(t.b as usize);
                *r.add(t.dst as usize) = $f(x, y);
            }
        }
    };
}

/// Immediate left: `r[dst] = f(imm, r[b])`.
macro_rules! t_cbl {
    ($name:ident, $f:expr) => {
        // SAFETY: see the shared thunk argument above.
        unsafe fn $name(t: &TArgs, r: *mut f64, _v: *const f64, _s: *const f64) {
            // SAFETY: see the shared thunk argument above.
            unsafe {
                let y = *r.add(t.b as usize);
                *r.add(t.dst as usize) = $f(t.imm, y);
            }
        }
    };
}

/// Immediate right: `r[dst] = f(r[a], imm)`.
macro_rules! t_cbr {
    ($name:ident, $f:expr) => {
        // SAFETY: see the shared thunk argument above.
        unsafe fn $name(t: &TArgs, r: *mut f64, _v: *const f64, _s: *const f64) {
            // SAFETY: see the shared thunk argument above.
            unsafe {
                let x = *r.add(t.a as usize);
                *r.add(t.dst as usize) = $f(x, t.imm);
            }
        }
    };
}

/// Fused `r[dst] = r[a] * r[b] - r[c]`: two roundings on purpose; see
/// `RInstr::MulSub`.
// SAFETY: see the shared thunk argument above.
unsafe fn t_mul_sub(t: &TArgs, r: *mut f64, _v: *const f64, _s: *const f64) {
    // SAFETY: see the shared thunk argument above.
    unsafe {
        let x = *r.add(t.a as usize);
        let y = *r.add(t.b as usize);
        let z = *r.add(t.c as usize);
        *r.add(t.dst as usize) = x * y - z;
    }
}

unsafe fn t_load_var(t: &TArgs, r: *mut f64, v: *const f64, _s: *const f64) {
    // SAFETY: see the shared thunk argument above.
    unsafe { *r.add(t.dst as usize) = *v.add(t.a as usize) }
}

unsafe fn t_load_state(t: &TArgs, r: *mut f64, _v: *const f64, s: *const f64) {
    // SAFETY: see the shared thunk argument above.
    unsafe { *r.add(t.dst as usize) = *s.add(t.a as usize) }
}

t_un!(t_neg, |x: f64| -x);
t_un!(t_log, protected_log);
t_un!(t_exp, protected_exp);
t_un!(t_log_fast, fast_log);
t_un!(t_exp_fast, fast_exp);

t_bin!(t_add, |x, y| x + y);
t_bin!(t_sub, |x, y| x - y);
t_bin!(t_mul, |x, y| x * y);
t_bin!(t_div, protected_div);
t_bin!(t_min, f64::min);
t_bin!(t_max, f64::max);
t_bin!(t_pow, protected_pow);
t_bin!(t_pow_fast, fast_pow);

t_vbl!(t_vbl_add, |x, y| x + y);
t_vbl!(t_vbl_sub, |x, y| x - y);
t_vbl!(t_vbl_mul, |x, y| x * y);
t_vbl!(t_vbl_div, protected_div);
t_vbl!(t_vbl_min, f64::min);
t_vbl!(t_vbl_max, f64::max);
t_vbl!(t_vbl_pow, protected_pow);
t_vbl!(t_vbl_pow_fast, fast_pow);

t_vbr!(t_vbr_add, |x, y| x + y);
t_vbr!(t_vbr_sub, |x, y| x - y);
t_vbr!(t_vbr_mul, |x, y| x * y);
t_vbr!(t_vbr_div, protected_div);
t_vbr!(t_vbr_min, f64::min);
t_vbr!(t_vbr_max, f64::max);
t_vbr!(t_vbr_pow, protected_pow);
t_vbr!(t_vbr_pow_fast, fast_pow);

t_cbl!(t_cbl_add, |x, y| x + y);
t_cbl!(t_cbl_sub, |x, y| x - y);
t_cbl!(t_cbl_mul, |x, y| x * y);
t_cbl!(t_cbl_div, protected_div);
t_cbl!(t_cbl_min, f64::min);
t_cbl!(t_cbl_max, f64::max);
t_cbl!(t_cbl_pow, protected_pow);
t_cbl!(t_cbl_pow_fast, fast_pow);

t_cbr!(t_cbr_add, |x, y| x + y);
t_cbr!(t_cbr_sub, |x, y| x - y);
t_cbr!(t_cbr_mul, |x, y| x * y);
t_cbr!(t_cbr_div, protected_div);
t_cbr!(t_cbr_min, f64::min);
t_cbr!(t_cbr_max, f64::max);
t_cbr!(t_cbr_pow, protected_pow);
t_cbr!(t_cbr_pow_fast, fast_pow);

fn bin_fn(op: BinOp, fast: bool) -> TFn {
    match op {
        BinOp::Add => t_add,
        BinOp::Sub => t_sub,
        BinOp::Mul => t_mul,
        BinOp::Div => t_div,
        BinOp::Min => t_min,
        BinOp::Max => t_max,
        BinOp::Pow if fast => t_pow_fast,
        BinOp::Pow => t_pow,
    }
}

fn vbl_fn(op: BinOp, fast: bool) -> TFn {
    match op {
        BinOp::Add => t_vbl_add,
        BinOp::Sub => t_vbl_sub,
        BinOp::Mul => t_vbl_mul,
        BinOp::Div => t_vbl_div,
        BinOp::Min => t_vbl_min,
        BinOp::Max => t_vbl_max,
        BinOp::Pow if fast => t_vbl_pow_fast,
        BinOp::Pow => t_vbl_pow,
    }
}

fn vbr_fn(op: BinOp, fast: bool) -> TFn {
    match op {
        BinOp::Add => t_vbr_add,
        BinOp::Sub => t_vbr_sub,
        BinOp::Mul => t_vbr_mul,
        BinOp::Div => t_vbr_div,
        BinOp::Min => t_vbr_min,
        BinOp::Max => t_vbr_max,
        BinOp::Pow if fast => t_vbr_pow_fast,
        BinOp::Pow => t_vbr_pow,
    }
}

fn cbl_fn(op: BinOp, fast: bool) -> TFn {
    match op {
        BinOp::Add => t_cbl_add,
        BinOp::Sub => t_cbl_sub,
        BinOp::Mul => t_cbl_mul,
        BinOp::Div => t_cbl_div,
        BinOp::Min => t_cbl_min,
        BinOp::Max => t_cbl_max,
        BinOp::Pow if fast => t_cbl_pow_fast,
        BinOp::Pow => t_cbl_pow,
    }
}

fn cbr_fn(op: BinOp, fast: bool) -> TFn {
    match op {
        BinOp::Add => t_cbr_add,
        BinOp::Sub => t_cbr_sub,
        BinOp::Mul => t_cbr_mul,
        BinOp::Div => t_cbr_div,
        BinOp::Min => t_cbr_min,
        BinOp::Max => t_cbr_max,
        BinOp::Pow if fast => t_cbr_pow_fast,
        BinOp::Pow => t_cbr_pow,
    }
}

fn un_fn(op: UnOp, fast: bool) -> TFn {
    match op {
        UnOp::Neg => t_neg,
        UnOp::Log if fast => t_log_fast,
        UnOp::Log => t_log,
        UnOp::Exp if fast => t_exp_fast,
        UnOp::Exp => t_exp,
    }
}

impl ThreadedProgram {
    /// Compile a *validated* register program to threaded code. `fast`
    /// selects the relaxed transcendentals (SIMD tier); with it off,
    /// thunk arithmetic is exactly the tree interpreter's. Panics if
    /// the program fails [`RegProgram::check`] — a threaded program for
    /// unvalidated code must never exist.
    pub(crate) fn build(prog: &RegProgram, fast: bool) -> ThreadedProgram {
        if let Err(e) = prog.check() {
            panic!("threaded build over invalid program: {e}");
        }
        // Re-derive the arity floors from the instruction stream: the
        // runtime asserts in `run` must cover exactly the indices the
        // thunks dereference, independent of the cached fields.
        let mut needs_vars = 0usize;
        let mut needs_states = 0usize;
        let mut thunks = Vec::with_capacity(prog.len());
        for ins in prog.instructions() {
            if let Some(i) = ins.var_index() {
                needs_vars = needs_vars.max(i as usize + 1);
            }
            if let Some(i) = ins.state_index() {
                needs_states = needs_states.max(i as usize + 1);
            }
            let zero = TArgs {
                dst: ins.dst(),
                a: 0,
                b: 0,
                c: 0,
                imm: 0.0,
            };
            let (f, args): (TFn, TArgs) = match *ins {
                RInstr::LoadVar { idx, .. } => (
                    t_load_var,
                    TArgs {
                        a: idx as u16,
                        ..zero
                    },
                ),
                RInstr::LoadState { idx, .. } => (
                    t_load_state,
                    TArgs {
                        a: idx as u16,
                        ..zero
                    },
                ),
                RInstr::Un { op, a, .. } => (un_fn(op, fast), TArgs { a, ..zero }),
                RInstr::Bin { op, a, b, .. } => (bin_fn(op, fast), TArgs { a, b, ..zero }),
                RInstr::VarBinL { op, idx, b, .. } => (
                    vbl_fn(op, fast),
                    TArgs {
                        a: idx as u16,
                        b,
                        ..zero
                    },
                ),
                RInstr::VarBinR { op, a, idx, .. } => (
                    vbr_fn(op, fast),
                    TArgs {
                        a,
                        b: idx as u16,
                        ..zero
                    },
                ),
                RInstr::ConstBinL { op, c, b, .. } => {
                    (cbl_fn(op, fast), TArgs { b, imm: c, ..zero })
                }
                RInstr::ConstBinR { op, a, c, .. } => {
                    (cbr_fn(op, fast), TArgs { a, imm: c, ..zero })
                }
                RInstr::MulSub { a, b, c, .. } => (t_mul_sub, TArgs { a, b, c, ..zero }),
            };
            thunks.push(Thunk { f, args });
        }
        ThreadedProgram {
            thunks,
            n_regs: prog.n_regs(),
            needs_vars,
            needs_states,
        }
    }

    /// Execute the thunk array over scalar registers. `regs` must be
    /// exactly `n_regs` long with the constants pinned by
    /// `RegProgram::init_consts` and the prefix window (if any) holding
    /// the current row's prefix values.
    #[inline]
    pub(crate) fn run(&self, vars: &[f64], state: &[f64], regs: &mut [f64]) {
        assert_eq!(regs.len(), self.n_regs);
        assert!(vars.len() >= self.needs_vars, "forcing vector too short");
        assert!(state.len() >= self.needs_states, "state vector too short");
        let r = regs.as_mut_ptr();
        let v = vars.as_ptr();
        let s = state.as_ptr();
        for t in &self.thunks {
            // SAFETY: the asserts above plus build-time validation put
            // every thunk access in bounds — see the module-level safety
            // architecture and the shared thunk argument.
            unsafe { (t.f)(&t.args, r, v, s) }
        }
    }
}

impl PartialEq for Thunk {
    fn eq(&self, other: &Self) -> bool {
        // Compare by argument pack and by pointer identity of the thunk
        // fn — sufficient for the derived CompiledSystem comparisons.
        std::ptr::fn_addr_eq(self.f, other.f) && self.args == other.args
    }
}
