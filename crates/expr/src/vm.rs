//! Optimizing register-VM pipeline — the Rust stand-in for the paper's
//! G++ runtime compilation (§III-D, "Runtime Compilation"): a
//! once-per-candidate compile cost buys a per-step evaluation much cheaper
//! than walking the tree, which pays off because a river simulation
//! evaluates the same system for thousands of daily steps.
//!
//! The tree interpreter pays a recursive dispatch per node at every one of
//! a simulation's ~4700 daily steps and — because the two equations of a
//! system share growth/limitation terms by construction of the revision
//! grammar — evaluates the same subexpressions twice per step. This module
//! compiles a *system* of equations through a small optimizing pipeline
//! instead:
//!
//! 1. **Lowering passes.** The equations are hash-consed into one DAG
//!    shared across *all* equations, which performs common-subexpression
//!    elimination for free (structurally identical subtrees intern to the
//!    same node, across equation boundaries). During interning,
//!    fully-constant subtrees fold (parameter values are frozen at compile
//!    time; a mutated tree is recompiled), and a peephole rewrites the
//!    identities that are sound under protected semantics: `x*1 → x`,
//!    `x+0 → x`, `x-0 → x`, `0-x → -x`, `x/1 → x`, `--x → x`,
//!    `min(x,x) → x`, `max(x,x) → x`, and `pow(x,1) → exp(log(x))`. The
//!    last one deserves a note: `protected_pow(x, 1)` is *defined* as
//!    `protected_exp(1 · protected_log(x))`, so the textbook `x^1 → x`
//!    would change values (`exp(ln(max(|x|,ε)))` is not `x`); the rewrite
//!    we apply drops only the exactly-neutral `1 ·` factor. `x*0 → 0` and
//!    `x-x → 0` are deliberately absent (wrong for NaN/∞ operands).
//!
//! 2. **Register code generation.** DAG nodes are scheduled in demand
//!    order (postorder over the roots) into three-address code over a
//!    fixed register file sized at compile time — no push/pop. Constants
//!    live in *pinned* registers written once per scratch buffer, so the
//!    steady state of the inner loop never dispatches a "push literal". A
//!    fusion peephole collapses common pairs into a fixed set of
//!    superinstructions — `VarBin{L,R}` (forcing-variable load folded into
//!    a binary op), `ConstBin{L,R}` (binary op with an inline immediate)
//!    and `MulSub` (`a·b − c`) — cutting dispatch count. A linear-scan
//!    allocator with a LIFO free list then compacts the SSA temporaries
//!    into a small reusable file.
//!
//! 3. **State-independent split.** Each equation is partitioned into a
//!    *prefix* (maximal subexpressions depending only on forcing variables
//!    and constants — e.g. the entire light/nutrient/temperature
//!    productivity factor of the expert model) and a state-dependent
//!    *core*. The prefix is evaluated **once per candidate** as a columnar
//!    sweep over the forcing rows, [`LANES`] rows per dispatch over
//!    structure-of-arrays lane registers, so its dispatch cost is
//!    amortized `LANES`-fold and the per-lane loops auto-vectorize; the
//!    sequential Euler recurrence executes only the core, reading the
//!    precomputed prefix values through a pinned register window. A solo
//!    [`SystemSession`] sweeps in chunks on demand, so a short-circuited
//!    evaluation (paper Alg. 1) never pays for rows it does not visit; a
//!    lock-step [`LaneSession`] reads a prefix materialized up front; a
//!    [`GroupSession`] merges many systems' prefixes (an evaluation
//!    round's candidates) by value numbering, so each distinct
//!    instruction is swept once per chunk for the members still running.
//!
//! 4. **Threaded execution.** Both programs are built into threaded code
//!    ([`crate::threaded`]): every instruction pre-resolved to a
//!    monomorphized thunk, so the scalar core's inner loop is one indirect
//!    call per instruction. The [`Tier`] picks the arithmetic behind the
//!    thunks and the lane kernels: bit-exact protected operators
//!    ([`Tier::Threaded`]), or relaxed fast transcendentals with AVX2
//!    kernels where they are live ([`Tier::Simd`]).
//!
//! The hard invariant, property-tested in `tests/properties.rs`: a
//! bit-exact system produces values `==`-equal (NaN tolerated as equal) to
//! the tree-walking interpreter on every input. All rewrites are chosen to
//! be exact under the *protected* operator semantics of [`crate::eval`];
//! the only tolerated differences are the sign of a zero (`0-x → -x` on
//! `x = +0`) and NaN payloads, neither of which is observable through
//! `==`, through any protected operator, or through the squared-error
//! fitness pipeline.

use crate::ast::{BinOp, Expr, UnOp};
use crate::compile::{check_arity, CompileError};
use crate::eval::{
    apply_bin, apply_un, max_op, min_op, protected_div, protected_exp, protected_log,
    protected_pow, EvalContext,
};
use crate::fastmath::{fast_exp, fast_log, fast_pow};
use crate::threaded::ThreadedProgram;
use std::collections::HashMap;

/// Rows evaluated per dispatch in the columnar prefix sweep. 32 keeps the
/// lane register file L1-resident for realistic programs (a 50-register
/// prefix occupies 12.5 KiB of lanes) while amortizing dispatch 32-fold,
/// and it matches the engine's default short-circuit check interval, so an
/// aborted candidate sweeps no further than its last fitness checkpoint.
pub const LANES: usize = 32;

/// The two ways to run a compiled system. Both compile the same bytecode
/// through the whole pipeline and run the scalar core and prefix as
/// threaded code; they differ only in the arithmetic behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Threaded code: each instruction pre-resolved at compile time into a
    /// monomorphized thunk, so the steady-state inner loop is one indirect
    /// call per instruction with no operator dispatch. Bit-exact.
    Threaded,
    /// Threaded code with relaxed-fidelity fast transcendentals
    /// ([`crate::fastmath`]) plus vectorized lane kernels
    /// ([`crate::simd`]) where the hardware supports them. Degrades to
    /// exactly [`Tier::Threaded`] semantics when the CPU lacks AVX2+FMA.
    Simd,
}

impl Tier {
    /// Every tier, the bit-exact one first — the order bench tables print
    /// in.
    pub const ALL: [Tier; 2] = [Tier::Threaded, Tier::Simd];

    /// Stable name used in `/models` JSON and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Threaded => "threaded",
            Tier::Simd => "simd",
        }
    }

    /// The fidelity this tier delivers **on this machine right now**: the
    /// `simd` tier is relaxed only when its vector kernels are actually
    /// live (AVX2+FMA detected); otherwise it is bit-exact threaded code.
    pub fn fidelity(self) -> Fidelity {
        if self == Tier::Simd && crate::simd::active() {
            Fidelity::RelaxedSimd
        } else {
            Fidelity::BitExact
        }
    }

    /// The fastest tier whose fidelity `policy` admits: `simd` where its
    /// kernels are live and relaxed fidelity is allowed, else `threaded`.
    pub fn fastest(policy: FidelityPolicy) -> Tier {
        match policy {
            FidelityPolicy::AllowRelaxed if crate::simd::active() => Tier::Simd,
            _ => Tier::Threaded,
        }
    }
}

/// Numerical fidelity of a compiled artifact's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Values are `==`-identical to the tree-walking interpreter on every
    /// input (NaN tolerated as equal) — the contract every tier except a
    /// live `simd` tier satisfies.
    BitExact,
    /// Transcendentals (`exp`, `log`, `pow`) use the fast rational
    /// approximations (~1e-13 relative error over the protected domains);
    /// all other operators remain bit-exact.
    RelaxedSimd,
}

impl Fidelity {
    /// Stable string used in `/models` JSON and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::BitExact => "bit-exact",
            Fidelity::RelaxedSimd => "relaxed-simd",
        }
    }
}

/// What fidelity a consumer of compiled artifacts is willing to accept.
/// The serving registry refuses to load a relaxed artifact under the
/// default [`BitExact`](FidelityPolicy::BitExact) policy, and `bench_vm
/// --validate` checks relaxed tiers against a tolerance instead of
/// bit-equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FidelityPolicy {
    /// Only bit-exact execution is acceptable.
    #[default]
    BitExact,
    /// Relaxed-fidelity execution is acceptable where it is faster.
    AllowRelaxed,
}

impl FidelityPolicy {
    /// Stable string used by `--fidelity` flags.
    pub fn name(self) -> &'static str {
        match self {
            FidelityPolicy::BitExact => "bit-exact",
            FidelityPolicy::AllowRelaxed => "allow-relaxed",
        }
    }

    /// Parse a `--fidelity` flag value.
    pub fn parse(s: &str) -> Option<FidelityPolicy> {
        match s {
            "bit-exact" => Some(FidelityPolicy::BitExact),
            "allow-relaxed" => Some(FidelityPolicy::AllowRelaxed),
            _ => None,
        }
    }

    /// Does this policy admit an artifact of fidelity `f`?
    pub fn allows(self, f: Fidelity) -> bool {
        self == FidelityPolicy::AllowRelaxed || f == Fidelity::BitExact
    }
}

/// One register-VM instruction. `dst`/`a`/`b`/`c` index the register file;
/// `idx` indexes the forcing (`vars`) or state vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RInstr {
    /// `r[dst] = vars[idx]`
    LoadVar { dst: u16, idx: u8 },
    /// `r[dst] = state[idx]`
    LoadState { dst: u16, idx: u8 },
    /// `r[dst] = un(op, r[a])`
    Un { op: UnOp, dst: u16, a: u16 },
    /// `r[dst] = bin(op, r[a], r[b])`
    Bin { op: BinOp, dst: u16, a: u16, b: u16 },
    /// Fused: `r[dst] = bin(op, vars[idx], r[b])`
    VarBinL {
        op: BinOp,
        dst: u16,
        idx: u8,
        b: u16,
    },
    /// Fused: `r[dst] = bin(op, r[a], vars[idx])`
    VarBinR {
        op: BinOp,
        dst: u16,
        a: u16,
        idx: u8,
    },
    /// Fused: `r[dst] = bin(op, c, r[b])` with an inline immediate.
    ConstBinL { op: BinOp, dst: u16, c: f64, b: u16 },
    /// Fused: `r[dst] = bin(op, r[a], c)` with an inline immediate.
    ConstBinR { op: BinOp, dst: u16, a: u16, c: f64 },
    /// Fused: `r[dst] = r[a] * r[b] - r[c]`, multiply and subtract
    /// rounded separately (NOT an FMA — equivalence with the interpreter
    /// forbids contracting the intermediate rounding).
    MulSub { dst: u16, a: u16, b: u16, c: u16 },
}

impl RInstr {
    fn set_dst(&mut self, r: u16) {
        match self {
            RInstr::LoadVar { dst, .. }
            | RInstr::LoadState { dst, .. }
            | RInstr::Un { dst, .. }
            | RInstr::Bin { dst, .. }
            | RInstr::VarBinL { dst, .. }
            | RInstr::VarBinR { dst, .. }
            | RInstr::ConstBinL { dst, .. }
            | RInstr::ConstBinR { dst, .. }
            | RInstr::MulSub { dst, .. } => *dst = r,
        }
    }

    /// The destination register this instruction writes.
    pub fn dst(&self) -> u16 {
        match *self {
            RInstr::LoadVar { dst, .. }
            | RInstr::LoadState { dst, .. }
            | RInstr::Un { dst, .. }
            | RInstr::Bin { dst, .. }
            | RInstr::VarBinL { dst, .. }
            | RInstr::VarBinR { dst, .. }
            | RInstr::ConstBinL { dst, .. }
            | RInstr::ConstBinR { dst, .. }
            | RInstr::MulSub { dst, .. } => dst,
        }
    }

    /// Visit every register this instruction *reads* (not the destination,
    /// not the forcing/state indices). The visit order matches operand
    /// order, so analyses over it are deterministic.
    pub fn reads(&self, mut f: impl FnMut(u16)) {
        match *self {
            RInstr::LoadVar { .. } | RInstr::LoadState { .. } => {}
            RInstr::Un { a, .. } | RInstr::VarBinR { a, .. } | RInstr::ConstBinR { a, .. } => f(a),
            RInstr::VarBinL { b, .. } | RInstr::ConstBinL { b, .. } => f(b),
            RInstr::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            RInstr::MulSub { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
        }
    }

    /// This instruction with every register it reads replaced by `f(r)`,
    /// in [`reads`](Self::reads) order; the destination, indices and
    /// immediates are kept.
    fn map_reads(mut self, mut f: impl FnMut(u16) -> u16) -> RInstr {
        match &mut self {
            RInstr::LoadVar { .. } | RInstr::LoadState { .. } => {}
            RInstr::Un { a, .. } | RInstr::VarBinR { a, .. } | RInstr::ConstBinR { a, .. } => {
                *a = f(*a)
            }
            RInstr::VarBinL { b, .. } | RInstr::ConstBinL { b, .. } => *b = f(*b),
            RInstr::Bin { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            RInstr::MulSub { a, b, c, .. } => {
                *a = f(*a);
                *b = f(*b);
                *c = f(*c);
            }
        }
        self
    }

    /// The forcing-variable (`vars`) index this instruction reads, if any.
    pub fn var_index(&self) -> Option<u8> {
        match *self {
            RInstr::LoadVar { idx, .. }
            | RInstr::VarBinL { idx, .. }
            | RInstr::VarBinR { idx, .. } => Some(idx),
            _ => None,
        }
    }

    /// The state-vector index this instruction reads, if any.
    pub fn state_index(&self) -> Option<u8> {
        match *self {
            RInstr::LoadState { idx, .. } => Some(idx),
            _ => None,
        }
    }
}

/// A linear register program. Register-file layout:
///
/// ```text
/// [0 .. nc)              pinned constants, written once per scratch buffer
/// [nc .. nc + n_pre)     pinned prefix-row window (core programs only)
/// [nc + n_pre .. n_regs) temporaries, reused via linear-scan allocation
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegProgram {
    code: Vec<RInstr>,
    /// Values of the pinned constant registers `[0 .. consts.len())`.
    consts: Vec<f64>,
    /// Width of the pinned prefix-row window.
    n_pre: u16,
    /// Total register-file size (pinned + temporaries).
    n_regs: u16,
    /// Registers holding the program's outputs after a run (may point into
    /// the pinned region when an output folded to a constant or lives in
    /// the prefix window).
    outputs: Vec<u16>,
    /// Minimum `vars` slice length any instruction reads.
    needs_vars: usize,
    /// Minimum `state` slice length any instruction reads.
    needs_states: usize,
}

impl RegProgram {
    fn empty() -> RegProgram {
        RegProgram {
            code: Vec::new(),
            consts: Vec::new(),
            n_pre: 0,
            n_regs: 0,
            outputs: Vec::new(),
            needs_vars: 0,
            needs_states: 0,
        }
    }

    /// Number of instructions (= dispatches per run).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Register-file size.
    pub fn n_regs(&self) -> usize {
        self.n_regs as usize
    }

    /// Raw instruction stream (tests and the bench harness).
    pub fn instructions(&self) -> &[RInstr] {
        &self.code
    }

    /// Values of the pinned constant registers `[0 .. consts.len())`.
    pub fn consts(&self) -> &[f64] {
        &self.consts
    }

    /// Width of the pinned prefix-row window (`[consts.len() ..
    /// consts.len() + n_pre)`); non-zero only for the core program of a
    /// system with state-independent work.
    pub fn n_pre(&self) -> usize {
        self.n_pre as usize
    }

    /// Registers holding the program's outputs after a run.
    pub fn outputs(&self) -> &[u16] {
        &self.outputs
    }

    /// Minimum `vars` slice length any instruction reads.
    pub fn needs_vars(&self) -> usize {
        self.needs_vars
    }

    /// Minimum `state` slice length any instruction reads.
    pub fn needs_states(&self) -> usize {
        self.needs_states
    }

    /// Check every register operand against the file size — the machine
    /// argument behind the unchecked register accesses of the threaded
    /// thunks and the lane kernels below: once this passes, every access
    /// is in bounds for any scratch buffer of `n_regs` (or
    /// `n_regs * LANES`) length. Returns the first violation as an error
    /// string; [`validate`](Self::validate) panics on it at construction
    /// time, and `lint::absint` re-proves the same facts
    /// independently over the public accessors.
    pub fn check(&self) -> Result<(), String> {
        let n = self.n_regs;
        let base = self.consts.len() as u16 + self.n_pre;
        let ck = |r: u16| {
            if r < n {
                Ok(())
            } else {
                Err(format!("register {r} out of file of {n}"))
            }
        };
        let ckd = |r: u16| {
            ck(r)?;
            if r >= base {
                Ok(())
            } else {
                Err(format!(
                    "write into pinned register {r} (pinned base {base})"
                ))
            }
        };
        for (i, ins) in self.code.iter().enumerate() {
            ckd(ins.dst()).map_err(|e| format!("instruction {i}: {e}"))?;
            let mut err = None;
            ins.reads(|r| {
                if err.is_none() {
                    err = ck(r).err();
                }
            });
            if let Some(e) = err {
                return Err(format!("instruction {i}: {e}"));
            }
        }
        for &o in &self.outputs {
            ck(o).map_err(|e| format!("output {e}"))?;
        }
        Ok(())
    }

    /// Panicking [`check`](Self::check), run once at construction.
    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid register program: {e}");
        }
    }

    /// Indices of instructions whose destination is never observed — not
    /// read by a later instruction before being overwritten, and not an
    /// output register at program end. Computed by a backward liveness
    /// sweep over the register file; the emitter and fusion passes should
    /// never produce such code, and [`allocate`] runs
    /// [`eliminate_dead`](Self::eliminate_dead) so a finished program has
    /// none — `lint::absint` independently verifies that.
    pub fn dead_instructions(&self) -> Vec<usize> {
        let mut live = vec![false; self.n_regs as usize];
        for &o in &self.outputs {
            if let Some(slot) = live.get_mut(o as usize) {
                *slot = true;
            }
        }
        let mut dead = Vec::new();
        for (i, ins) in self.code.iter().enumerate().rev() {
            let dst = ins.dst() as usize;
            if dst < live.len() && live[dst] {
                live[dst] = false; // killed by this write
                ins.reads(|r| {
                    if let Some(slot) = live.get_mut(r as usize) {
                        *slot = true;
                    }
                });
            } else {
                dead.push(i);
            }
        }
        dead.reverse();
        dead
    }

    /// Remove every dead instruction (see
    /// [`dead_instructions`](Self::dead_instructions)); returns how many
    /// were removed. Register assignments stay valid: deleting a write
    /// nobody observes cannot change any observed register value.
    fn eliminate_dead(&mut self) -> usize {
        let dead = self.dead_instructions();
        if dead.is_empty() {
            return 0;
        }
        let mut keep = vec![true; self.code.len()];
        for &i in &dead {
            keep[i] = false;
        }
        let mut it = keep.iter();
        self.code.retain(|_| *it.next().expect("keep mask length"));
        dead.len()
    }

    /// Construct a program directly from its parts, **bypassing**
    /// [`check`](Self::check). Exists so static-analysis tests can build
    /// deliberately corrupted programs (out-of-bounds registers, state
    /// loads in a prefix) and prove the analyzer refuses them. Running a
    /// program that fails `check()` through the thunks or the lane kernels
    /// is undefined behaviour — never run one, only analyze it.
    #[doc(hidden)]
    pub fn from_raw_unchecked(
        code: Vec<RInstr>,
        consts: Vec<f64>,
        n_pre: u16,
        n_regs: u16,
        outputs: Vec<u16>,
        needs_vars: usize,
        needs_states: usize,
    ) -> RegProgram {
        RegProgram {
            code,
            consts,
            n_pre,
            n_regs,
            outputs,
            needs_vars,
            needs_states,
        }
    }

    /// Write the pinned constants into a scalar register file.
    pub(crate) fn init_consts(&self, regs: &mut [f64]) {
        regs[..self.consts.len()].copy_from_slice(&self.consts);
    }

    /// Broadcast the pinned constants into a lane register file.
    fn init_consts_lanes(&self, regs: &mut [f64]) {
        for (k, &c) in self.consts.iter().enumerate() {
            regs[k * LANES..(k + 1) * LANES].fill(c);
        }
    }

    /// The distinct forcing columns this program reads, ascending.
    fn vars_read(&self) -> Vec<u8> {
        let mut cols: Vec<u8> = self.code.iter().filter_map(RInstr::var_index).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The forcing columns each instruction's value depends on, one
    /// [`col_bit`] mask per instruction: one walk over the code carries
    /// every register's mask from the instruction that writes it to the
    /// ones that read it (pinned constants carry none).
    fn var_deps(&self) -> Vec<u64> {
        let mut reg = vec![0u64; self.n_regs as usize];
        self.code
            .iter()
            .map(|ins| {
                let mut dep = ins.var_index().map_or(0, col_bit);
                ins.reads(|r| dep |= reg[r as usize]);
                reg[ins.dst() as usize] = dep;
                dep
            })
            .collect()
    }

    /// Run `m <= LANES` lanes through the program, lane `l` reading its
    /// own forcing row `rows[l]` and its own state vector
    /// `states[l * state_stride ..]` (lane-major). Two shapes share it:
    /// the columnar prefix sweep, whose lanes are `m` consecutive rows of
    /// one trajectory with no state (`state_stride == 0`; the prefix is
    /// state-independent), and the per-lane lock-step core, whose lanes
    /// are `m` trajectories each at the same step of its own forcing
    /// table. Each register is a `[f64; LANES]` stripe in the flat `regs`
    /// buffer; one dispatch covers all `m` lanes and the per-lane loops are
    /// plain indexed f64 kernels with the operator matched *outside* the
    /// loop, so the compiler can auto-vectorize them. Per-lane arithmetic
    /// is the scalar protected-op sequence of the threaded thunks, so each
    /// lane is bit-identical to a solo run.
    fn run_lanes<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        states: &[f64],
        state_stride: usize,
        m: usize,
        regs: &mut [f64],
        fast: bool,
    ) {
        assert_eq!(regs.len(), self.n_regs as usize * LANES);
        assert!(m <= LANES && rows.len() >= m && states.len() >= m * state_stride);
        assert!(state_stride >= self.needs_states);
        debug_assert!(rows[..m]
            .iter()
            .all(|r| r.as_ref().len() >= self.needs_vars));
        // Register stripes are `[r*LANES .. r*LANES+m)` with `r < n_regs`
        // (validated at construction) and `m <= LANES`, so every lane index
        // is `< n_regs * LANES == regs.len()` — the shared argument of the
        // `k_*`/`l_*` kernels below. Row and state accesses stay
        // bounds-checked.
        for ins in &self.code {
            lane_instr(ins, rows, states, state_stride, m, regs, fast);
        }
    }

    /// Run `m <= LANES` *trajectories* through one step sharing a single
    /// forcing row: [`run_lanes`](Self::run_lanes) with every lane reading
    /// the *same* `vars` row, which is what lets a batching server amortize
    /// instruction dispatch across concurrent simulations of one model.
    /// The shared row makes a `VarBin` operand a broadcast constant, so it
    /// takes the `l_bin_cl`/`l_bin_cr` kernels (vectorized for add, sub,
    /// mul, min and max as well as div and pow) instead of the gathered
    /// ones. Per-lane arithmetic is the same scalar protected-op sequence
    /// as the threaded thunks, so each lane's outputs are bit-identical to
    /// a solo scalar evaluation.
    pub(crate) fn run_lanes_one_row(
        &self,
        vars: &[f64],
        states: &[f64],
        state_stride: usize,
        m: usize,
        regs: &mut [f64],
        fast: bool,
    ) {
        assert_eq!(regs.len(), self.n_regs as usize * LANES);
        assert!(m <= LANES && states.len() >= m * state_stride);
        assert!(state_stride >= self.needs_states);
        debug_assert!(vars.len() >= self.needs_vars);
        // Same stripe-bounds argument as `run_lanes`: stripes are
        // `[r*LANES .. r*LANES+m)` with `r < n_regs` proved by `validate()`
        // and `m <= LANES` asserted above. `vars`/`states` accesses stay
        // bounds-checked.
        let off = |r: u16| r as usize * LANES;
        for ins in &self.code {
            match *ins {
                RInstr::LoadVar { dst, idx } => {
                    let d = off(dst);
                    regs[d..d + m].fill(vars[idx as usize]);
                }
                RInstr::LoadState { dst, idx } => {
                    let d = off(dst);
                    for l in 0..m {
                        regs[d + l] = states[l * state_stride + idx as usize];
                    }
                }
                RInstr::Un { op, dst, a } => {
                    l_un(op, fast, regs, off(dst), off(a), m);
                }
                RInstr::Bin { op, dst, a, b } => {
                    l_bin(op, fast, regs, off(dst), off(a), off(b), m);
                }
                RInstr::VarBinL { op, dst, idx, b } => {
                    // One shared row: the variable operand is a broadcast
                    // constant for every lane.
                    l_bin_cl(op, fast, regs, off(dst), vars[idx as usize], off(b), m);
                }
                RInstr::VarBinR { op, dst, a, idx } => {
                    l_bin_cr(op, fast, regs, off(dst), off(a), vars[idx as usize], m);
                }
                RInstr::ConstBinL { op, dst, c, b } => {
                    l_bin_cl(op, fast, regs, off(dst), c, off(b), m);
                }
                RInstr::ConstBinR { op, dst, a, c } => {
                    l_bin_cr(op, fast, regs, off(dst), off(a), c, m);
                }
                RInstr::MulSub { dst, a, b, c } => {
                    l_fused3(regs, off(dst), off(a), off(b), off(c), m);
                }
            }
        }
    }
}

/// The mask bit of forcing column `v` in [`RegProgram::var_deps`]:
/// columns from 63 up share the top bit, so a difference in any of them
/// counts as a difference in all.
fn col_bit(v: u8) -> u64 {
    1 << v.min(63)
}

/// One instruction over `m <= LANES` lanes, lane `l` reading forcing row
/// `rows[l]` and state `states[l * state_stride ..]`: the one copy of the
/// per-lane instruction body behind [`RegProgram::run_lanes`] and the
/// per-lane prefix sweep. Callers uphold `run_lanes`' contract: `ins`
/// belongs to a validated program whose `n_regs * LANES` is `regs.len()`.
#[inline(always)]
fn lane_instr<R: AsRef<[f64]>>(
    ins: &RInstr,
    rows: &[R],
    states: &[f64],
    state_stride: usize,
    m: usize,
    regs: &mut [f64],
    fast: bool,
) {
    let off = |r: u16| r as usize * LANES;
    match *ins {
        RInstr::LoadVar { dst, idx } => {
            let d = off(dst);
            for l in 0..m {
                regs[d + l] = rows[l].as_ref()[idx as usize];
            }
        }
        RInstr::LoadState { dst, idx } => {
            let d = off(dst);
            for l in 0..m {
                regs[d + l] = states[l * state_stride + idx as usize];
            }
        }
        RInstr::Un { op, dst, a } => {
            l_un(op, fast, regs, off(dst), off(a), m);
        }
        RInstr::Bin { op, dst, a, b } => {
            l_bin(op, fast, regs, off(dst), off(a), off(b), m);
        }
        RInstr::VarBinL { op, dst, idx, b } => {
            // The variable operand differs per lane here, so no broadcast
            // kernel applies; gather it into a stack stripe and let the
            // dispatcher pick the gathered-operand vector kernel (pow/div)
            // or the scalar loop.
            let mut v = [0.0; LANES];
            for (l, slot) in v[..m].iter_mut().enumerate() {
                *slot = rows[l].as_ref()[idx as usize];
            }
            l_bin_vl(op, fast, regs, off(dst), &v, off(b), m);
        }
        RInstr::VarBinR { op, dst, a, idx } => {
            let mut v = [0.0; LANES];
            for (l, slot) in v[..m].iter_mut().enumerate() {
                *slot = rows[l].as_ref()[idx as usize];
            }
            l_bin_vr(op, fast, regs, off(dst), off(a), &v, m);
        }
        RInstr::ConstBinL { op, dst, c, b } => {
            l_bin_cl(op, fast, regs, off(dst), c, off(b), m);
        }
        RInstr::ConstBinR { op, dst, a, c } => {
            l_bin_cr(op, fast, regs, off(dst), off(a), c, m);
        }
        RInstr::MulSub { dst, a, b, c } => {
            l_fused3(regs, off(dst), off(a), off(b), off(c), m);
        }
    }
}

// Per-lane interpreter kernels shared by `run_lanes` (per-lane rows) and
// `run_lanes_one_row` (one shared row). The operator closure is
// resolved *outside* the lane loop so the loop body is a plain indexed f64
// kernel the compiler can auto-vectorize.
//
// SAFETY (all four): callers pass stripe offsets `r as usize * LANES` for
// registers proved `< n_regs` by `RegProgram::validate()`, and `m <= LANES`,
// against a buffer asserted to be exactly `n_regs * LANES` long — so every
// `offset + l` is in bounds.
#[inline(always)]
fn k_un(f: impl Fn(f64) -> f64, regs: &mut [f64], d: usize, a: usize, m: usize) {
    for l in 0..m {
        // SAFETY: see the shared argument above.
        unsafe {
            let av = *regs.get_unchecked(a + l);
            *regs.get_unchecked_mut(d + l) = f(av);
        }
    }
}

#[inline(always)]
fn k_bin(f: impl Fn(f64, f64) -> f64, regs: &mut [f64], d: usize, a: usize, b: usize, m: usize) {
    for l in 0..m {
        // SAFETY: see the shared argument above.
        unsafe {
            let av = *regs.get_unchecked(a + l);
            let bv = *regs.get_unchecked(b + l);
            *regs.get_unchecked_mut(d + l) = f(av, bv);
        }
    }
}

#[inline(always)]
fn k_bin_cl(f: impl Fn(f64, f64) -> f64, regs: &mut [f64], d: usize, c: f64, b: usize, m: usize) {
    for l in 0..m {
        // SAFETY: see the shared argument above.
        unsafe {
            let bv = *regs.get_unchecked(b + l);
            *regs.get_unchecked_mut(d + l) = f(c, bv);
        }
    }
}

#[inline(always)]
fn k_bin_cr(f: impl Fn(f64, f64) -> f64, regs: &mut [f64], d: usize, a: usize, c: f64, m: usize) {
    for l in 0..m {
        // SAFETY: see the shared argument above.
        unsafe {
            let av = *regs.get_unchecked(a + l);
            *regs.get_unchecked_mut(d + l) = f(av, c);
        }
    }
}

// Lane-kernel dispatchers: resolve `(op, fast)` to the right kernel once
// per instruction, outside the lane loop. On a full stripe (`m == LANES`)
// with live SIMD support these call the `__m256d` kernels in
// `crate::simd`; otherwise (ragged tail, no AVX2+FMA, not x86-64) the
// scalar `k_*` kernels run. Fast transcendentals are chosen only when
// `fast` (the relaxed `simd` tier); both paths compute bit-identical
// per-lane values, so chunk alignment never changes a trajectory.
//
// SAFETY (the `unsafe` blocks below): `crate::simd::active()` verified
// AVX2+FMA at run time, and the offsets are full `LANES`-wide stripes of
// registers proved `< n_regs` by `RegProgram::validate()` against a buffer
// asserted `n_regs * LANES` long — the exact contract the kernels state.
#[inline]
fn l_un(op: UnOp, fast: bool, regs: &mut [f64], d: usize, a: usize, m: usize) {
    #[cfg(target_arch = "x86_64")]
    if m == LANES && crate::simd::active() {
        // SAFETY: see the shared dispatcher argument above.
        unsafe {
            match (op, fast) {
                (UnOp::Neg, _) => return crate::simd::neg_k(regs, d, a),
                (UnOp::Exp, true) => return crate::simd::exp_k(regs, d, a),
                (UnOp::Log, true) => return crate::simd::log_k(regs, d, a),
                _ => {}
            }
        }
    }
    match (op, fast) {
        (UnOp::Neg, _) => k_un(|x| -x, regs, d, a, m),
        (UnOp::Log, false) => k_un(protected_log, regs, d, a, m),
        (UnOp::Exp, false) => k_un(protected_exp, regs, d, a, m),
        (UnOp::Log, true) => k_un(fast_log, regs, d, a, m),
        (UnOp::Exp, true) => k_un(fast_exp, regs, d, a, m),
    }
}

#[inline]
fn l_bin(op: BinOp, fast: bool, regs: &mut [f64], d: usize, a: usize, b: usize, m: usize) {
    #[cfg(target_arch = "x86_64")]
    if m == LANES && crate::simd::active() {
        // SAFETY: see the shared dispatcher argument above.
        unsafe {
            match op {
                BinOp::Add => return crate::simd::add_rr(regs, d, a, b),
                BinOp::Sub => return crate::simd::sub_rr(regs, d, a, b),
                BinOp::Mul => return crate::simd::mul_rr(regs, d, a, b),
                BinOp::Div => return crate::simd::div_rr(regs, d, a, b),
                BinOp::Min => return crate::simd::min_rr(regs, d, a, b),
                BinOp::Max => return crate::simd::max_rr(regs, d, a, b),
                BinOp::Pow if fast => return crate::simd::pow_rr(regs, d, a, b),
                BinOp::Pow => {}
            }
        }
    }
    match op {
        BinOp::Add => k_bin(|x, y| x + y, regs, d, a, b, m),
        BinOp::Sub => k_bin(|x, y| x - y, regs, d, a, b, m),
        BinOp::Mul => k_bin(|x, y| x * y, regs, d, a, b, m),
        BinOp::Div => k_bin(protected_div, regs, d, a, b, m),
        BinOp::Min => k_bin(min_op, regs, d, a, b, m),
        BinOp::Max => k_bin(max_op, regs, d, a, b, m),
        BinOp::Pow => {
            let f: fn(f64, f64) -> f64 = if fast { fast_pow } else { protected_pow };
            k_bin(f, regs, d, a, b, m)
        }
    }
}

#[inline]
fn l_bin_cl(op: BinOp, fast: bool, regs: &mut [f64], d: usize, c: f64, b: usize, m: usize) {
    #[cfg(target_arch = "x86_64")]
    if m == LANES && crate::simd::active() {
        // SAFETY: see the shared dispatcher argument above.
        unsafe {
            match op {
                BinOp::Add => return crate::simd::add_cl(regs, d, c, b),
                BinOp::Sub => return crate::simd::sub_cl(regs, d, c, b),
                BinOp::Mul => return crate::simd::mul_cl(regs, d, c, b),
                BinOp::Div => return crate::simd::div_cl(regs, d, c, b),
                BinOp::Min => return crate::simd::min_cl(regs, d, c, b),
                BinOp::Max => return crate::simd::max_cl(regs, d, c, b),
                BinOp::Pow if fast => return crate::simd::pow_cl(regs, d, c, b),
                BinOp::Pow => {}
            }
        }
    }
    match op {
        BinOp::Add => k_bin_cl(|x, y| x + y, regs, d, c, b, m),
        BinOp::Sub => k_bin_cl(|x, y| x - y, regs, d, c, b, m),
        BinOp::Mul => k_bin_cl(|x, y| x * y, regs, d, c, b, m),
        BinOp::Div => k_bin_cl(protected_div, regs, d, c, b, m),
        BinOp::Min => k_bin_cl(min_op, regs, d, c, b, m),
        BinOp::Max => k_bin_cl(max_op, regs, d, c, b, m),
        BinOp::Pow => {
            let f: fn(f64, f64) -> f64 = if fast { fast_pow } else { protected_pow };
            k_bin_cl(f, regs, d, c, b, m)
        }
    }
}

#[inline]
fn l_bin_cr(op: BinOp, fast: bool, regs: &mut [f64], d: usize, a: usize, c: f64, m: usize) {
    #[cfg(target_arch = "x86_64")]
    if m == LANES && crate::simd::active() {
        // SAFETY: see the shared dispatcher argument above.
        unsafe {
            match op {
                BinOp::Add => return crate::simd::add_cr(regs, d, a, c),
                BinOp::Sub => return crate::simd::sub_cr(regs, d, a, c),
                BinOp::Mul => return crate::simd::mul_cr(regs, d, a, c),
                BinOp::Div => return crate::simd::div_cr(regs, d, a, c),
                BinOp::Min => return crate::simd::min_cr(regs, d, a, c),
                BinOp::Max => return crate::simd::max_cr(regs, d, a, c),
                BinOp::Pow if fast => return crate::simd::pow_cr(regs, d, a, c),
                BinOp::Pow => {}
            }
        }
    }
    match op {
        BinOp::Add => k_bin_cr(|x, y| x + y, regs, d, a, c, m),
        BinOp::Sub => k_bin_cr(|x, y| x - y, regs, d, a, c, m),
        BinOp::Mul => k_bin_cr(|x, y| x * y, regs, d, a, c, m),
        BinOp::Div => k_bin_cr(protected_div, regs, d, a, c, m),
        BinOp::Min => k_bin_cr(min_op, regs, d, a, c, m),
        BinOp::Max => k_bin_cr(max_op, regs, d, a, c, m),
        BinOp::Pow => {
            let f: fn(f64, f64) -> f64 = if fast { fast_pow } else { protected_pow };
            k_bin_cr(f, regs, d, a, c, m)
        }
    }
}

#[inline]
fn l_bin_vl(
    op: BinOp,
    fast: bool,
    regs: &mut [f64],
    d: usize,
    v: &[f64; LANES],
    b: usize,
    m: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if m == LANES && crate::simd::active() {
        // SAFETY: see the shared dispatcher argument above; the gathered
        // operand is a full stack-owned stripe.
        unsafe {
            match op {
                BinOp::Div => return crate::simd::div_vl(regs, d, v, b),
                BinOp::Pow if fast => return crate::simd::pow_vl(regs, d, v, b),
                _ => {}
            }
        }
    }
    if fast && op == BinOp::Pow {
        for l in 0..m {
            regs[d + l] = fast_pow(v[l], regs[b + l]);
        }
    } else {
        for l in 0..m {
            regs[d + l] = apply_bin(op, v[l], regs[b + l]);
        }
    }
}

#[inline]
fn l_bin_vr(
    op: BinOp,
    fast: bool,
    regs: &mut [f64],
    d: usize,
    a: usize,
    v: &[f64; LANES],
    m: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if m == LANES && crate::simd::active() {
        // SAFETY: see the shared dispatcher argument above; the gathered
        // operand is a full stack-owned stripe.
        unsafe {
            match op {
                BinOp::Div => return crate::simd::div_vr(regs, d, a, v),
                BinOp::Pow if fast => return crate::simd::pow_vr(regs, d, a, v),
                _ => {}
            }
        }
    }
    if fast && op == BinOp::Pow {
        for l in 0..m {
            regs[d + l] = fast_pow(regs[a + l], v[l]);
        }
    } else {
        for l in 0..m {
            regs[d + l] = apply_bin(op, regs[a + l], v[l]);
        }
    }
}

/// The three-operand lane dispatcher: `d = a·b − c` (`MulSub`, the only
/// three-operand superinstruction).
#[inline]
fn l_fused3(regs: &mut [f64], d: usize, a: usize, b: usize, c: usize, m: usize) {
    #[cfg(target_arch = "x86_64")]
    if m == LANES && crate::simd::active() {
        // SAFETY: see the shared dispatcher argument above.
        unsafe {
            return crate::simd::mul_sub_k(regs, d, a, b, c);
        }
    }
    for l in 0..m {
        // SAFETY: see the shared argument above (`k_*` kernels).
        unsafe {
            let av = *regs.get_unchecked(a + l);
            let bv = *regs.get_unchecked(b + l);
            let cv = *regs.get_unchecked(c + l);
            // Two roundings on purpose; see `RInstr::MulSub`.
            *regs.get_unchecked_mut(d + l) = av * bv - cv;
        }
    }
}

// ---------------------------------------------------------------------------
// DAG construction: hash-consed CSE + constant folding + peephole
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Const(f64),
    Var(u8),
    State(u8),
    Un(UnOp, u32),
    Bin(BinOp, u32, u32),
}

/// Hashable identity of a node; floats hash by bit pattern so `-0.0` and
/// `0.0` intern to distinct nodes.
#[derive(Hash, PartialEq, Eq)]
enum Key {
    Const(u64),
    Var(u8),
    State(u8),
    Un(UnOp, u32),
    Bin(BinOp, u32, u32),
}

/// The hash-consed expression DAG. Node ids are assigned in deterministic
/// first-intern order (driven by the left-to-right postorder of `lower`);
/// the `interned` map is only ever *probed*, never iterated, so nothing
/// downstream depends on hash order — a requirement of the engine's
/// thread-count-invariance contract.
struct Dag {
    nodes: Vec<Node>,
    /// Whether the node (transitively) reads a state variable.
    state_dep: Vec<bool>,
    interned: HashMap<Key, u32>,
}

impl Dag {
    fn new() -> Dag {
        Dag {
            nodes: Vec::new(),
            state_dep: Vec::new(),
            interned: HashMap::new(),
        }
    }

    fn node(&self, id: u32) -> Node {
        self.nodes[id as usize]
    }

    fn cnum(&self, id: u32) -> Option<f64> {
        match self.node(id) {
            Node::Const(v) => Some(v),
            _ => None,
        }
    }

    fn intern(&mut self, n: Node) -> u32 {
        let key = match n {
            Node::Const(v) => Key::Const(v.to_bits()),
            Node::Var(i) => Key::Var(i),
            Node::State(i) => Key::State(i),
            Node::Un(op, a) => Key::Un(op, a),
            Node::Bin(op, a, b) => Key::Bin(op, a, b),
        };
        if let Some(&id) = self.interned.get(&key) {
            return id;
        }
        let dep = match n {
            Node::State(_) => true,
            Node::Un(_, a) => self.state_dep[a as usize],
            Node::Bin(_, a, b) => self.state_dep[a as usize] || self.state_dep[b as usize],
            _ => false,
        };
        let id = u32::try_from(self.nodes.len()).expect("expression DAG exceeds u32 nodes");
        self.nodes.push(n);
        self.state_dep.push(dep);
        self.interned.insert(key, id);
        id
    }

    fn unary(&mut self, op: UnOp, a: u32) -> u32 {
        // Constant folding through the protected operator.
        if let Some(v) = self.cnum(a) {
            return self.intern(Node::Const(apply_un(op, v)));
        }
        // --x → x (exact: negation is an involution on every f64).
        if op == UnOp::Neg {
            if let Node::Un(UnOp::Neg, inner) = self.node(a) {
                return inner;
            }
        }
        self.intern(Node::Un(op, a))
    }

    fn binary(&mut self, op: BinOp, a: u32, b: u32) -> u32 {
        if let (Some(x), Some(y)) = (self.cnum(a), self.cnum(b)) {
            return self.intern(Node::Const(apply_bin(op, x, y)));
        }
        // Identity peephole — every rule is value-preserving under the
        // protected semantics (see the module docs for the pow caveat and
        // the sign-of-zero note). `a_is`/`b_is` use `==`, so `-0.0`
        // matches `0.0`, which is fine for the rules below.
        let a_is = |v: f64| self.cnum(a) == Some(v);
        let b_is = |v: f64| self.cnum(b) == Some(v);
        match op {
            BinOp::Add => {
                if a_is(0.0) {
                    return b;
                }
                if b_is(0.0) {
                    return a;
                }
            }
            BinOp::Sub => {
                if b_is(0.0) {
                    return a;
                }
                if a_is(0.0) {
                    return self.unary(UnOp::Neg, b);
                }
            }
            BinOp::Mul => {
                if a_is(1.0) {
                    return b;
                }
                if b_is(1.0) {
                    return a;
                }
            }
            BinOp::Div => {
                if b_is(1.0) {
                    return a;
                }
            }
            BinOp::Pow => {
                // protected_pow(x, 1) ≡ protected_exp(1 · protected_log(x));
                // dropping the neutral multiply is exact, dropping the
                // exp∘log round-trip would not be.
                if b_is(1.0) {
                    let l = self.unary(UnOp::Log, a);
                    return self.unary(UnOp::Exp, l);
                }
            }
            BinOp::Min | BinOp::Max => {
                // Hash-consing makes structural identity pointer identity:
                // min(x, x) → x even for compound x.
                if a == b {
                    return a;
                }
            }
        }
        self.intern(Node::Bin(op, a, b))
    }

    fn lower(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Num(v) => self.intern(Node::Const(*v)),
            // Parameter values are frozen at compile time; recompile after
            // Gaussian mutation.
            Expr::Param(p) => self.intern(Node::Const(p.value)),
            Expr::Var(i) => self.intern(Node::Var(*i)),
            Expr::State(i) => self.intern(Node::State(*i)),
            Expr::Unary(op, a) => {
                let a = self.lower(a);
                self.unary(*op, a)
            }
            Expr::Binary(op, a, b) => {
                let a = self.lower(a);
                let b = self.lower(b);
                self.binary(*op, a, b)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Virtual-code emission
// ---------------------------------------------------------------------------

/// A value reference in virtual (pre-allocation) code.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VR {
    /// SSA temporary.
    Temp(u32),
    /// Pinned constant, identified by its DAG node id.
    Const(u32),
    /// Pinned prefix-window slot (core programs only).
    Pre(u16),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VOp {
    LoadVar(u8),
    LoadState(u8),
    Un(UnOp, VR),
    Bin(BinOp, VR, VR),
    VarBinL(BinOp, u8, VR),
    VarBinR(BinOp, VR, u8),
    ConstBinL(BinOp, f64, VR),
    ConstBinR(BinOp, VR, f64),
    MulSub(VR, VR, VR),
}

impl VOp {
    /// Visit every operand.
    fn operands(&self, mut f: impl FnMut(&VR)) {
        match self {
            VOp::LoadVar(_) | VOp::LoadState(_) => {}
            VOp::Un(_, a) | VOp::VarBinR(_, a, _) | VOp::ConstBinR(_, a, _) => f(a),
            VOp::VarBinL(_, _, b) | VOp::ConstBinL(_, _, b) => f(b),
            VOp::Bin(_, a, b) => {
                f(a);
                f(b);
            }
            VOp::MulSub(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct VIns {
    dst: u32,
    op: VOp,
    dead: bool,
}

/// Demand-driven emitter: walking `value(root)` emits each needed DAG node
/// exactly once, in deterministic postorder.
struct Emitter<'d> {
    dag: &'d Dag,
    /// Prefix-output slot per DAG node (`Some` ⇒ the *core* program reads
    /// the value through the pinned window instead of recomputing it).
    pre_slot: &'d [Option<u16>],
    /// Emitting the prefix program itself (slot nodes are computed inline,
    /// state loads are unreachable)?
    in_prefix: bool,
    value_of: Vec<Option<VR>>,
    code: Vec<VIns>,
    next_temp: u32,
}

impl<'d> Emitter<'d> {
    fn new(dag: &'d Dag, pre_slot: &'d [Option<u16>], in_prefix: bool) -> Emitter<'d> {
        Emitter {
            dag,
            pre_slot,
            in_prefix,
            value_of: vec![None; dag.nodes.len()],
            code: Vec::new(),
            next_temp: 0,
        }
    }

    fn def(&mut self, op: VOp) -> VR {
        let t = self.next_temp;
        self.next_temp += 1;
        self.code.push(VIns {
            dst: t,
            op,
            dead: false,
        });
        VR::Temp(t)
    }

    fn value(&mut self, id: u32) -> VR {
        if let Some(v) = self.value_of[id as usize] {
            return v;
        }
        if !self.in_prefix {
            if let Some(slot) = self.pre_slot[id as usize] {
                let v = VR::Pre(slot);
                self.value_of[id as usize] = Some(v);
                return v;
            }
        }
        let v = match self.dag.node(id) {
            Node::Const(_) => VR::Const(id),
            Node::Var(i) => self.def(VOp::LoadVar(i)),
            Node::State(i) => {
                debug_assert!(!self.in_prefix, "state leaf in prefix");
                self.def(VOp::LoadState(i))
            }
            Node::Un(op, a) => {
                let av = self.value(a);
                self.def(VOp::Un(op, av))
            }
            Node::Bin(op, a, b) => {
                let av = self.value(a);
                let bv = self.value(b);
                self.def(VOp::Bin(op, av, bv))
            }
        };
        self.value_of[id as usize] = Some(v);
        v
    }
}

// ---------------------------------------------------------------------------
// Superinstruction fusion
// ---------------------------------------------------------------------------

/// Fusion peephole over virtual code, applying the fixed superinstruction
/// set. Priority per binary instruction: `MulSub` (a single-use `Mul` as
/// the left operand of a `Sub`, erasing a whole instruction) over `VarBin`
/// (erases a load and its dispatch) over `ConstBin` (inlines an immediate,
/// freeing a pinned register read). The set is frozen: it is the one
/// evolved elites were measured to use (see DESIGN.md), and changing it
/// changes every compiled program. Multi-use temporaries are never
/// destroyed: a `LoadVar` feeding several consumers fuses into each, and
/// its defining instruction dies only when no uses remain. Output
/// references count as uses, so an output definition never fuses away.
fn fuse(code: &mut Vec<VIns>, outputs: &[VR], dag: &Dag) {
    let mut def_idx: HashMap<u32, usize> = HashMap::with_capacity(code.len());
    for (i, ins) in code.iter().enumerate() {
        def_idx.insert(ins.dst, i);
    }
    let mut uses: HashMap<u32, u32> = HashMap::with_capacity(code.len());
    for ins in code.iter() {
        ins.op.operands(|v| {
            if let VR::Temp(t) = v {
                *uses.entry(*t).or_insert(0) += 1;
            }
        });
    }
    for o in outputs {
        if let VR::Temp(t) = o {
            *uses.entry(*t).or_insert(0) += 1;
        }
    }

    for i in 0..code.len() {
        let VOp::Bin(op, a, b) = code[i].op else {
            continue;
        };
        // MulSub: a single-use Mul as the left operand of a Sub. The
        // decision is computed first and applied after, so the immutable
        // probe of `code`/`uses` ends before the mutation.
        let mul = match (op, a) {
            (BinOp::Sub, VR::Temp(t)) if uses.get(&t) == Some(&1) => {
                let j = def_idx[&t];
                match code[j].op {
                    VOp::Bin(BinOp::Mul, x, y) => Some((t, j, x, y)),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some((t, j, x, y)) = mul {
            code[i].op = VOp::MulSub(x, y, b);
            code[j].dead = true;
            uses.insert(t, 0);
            continue;
        }
        // VarBin: fold a forcing-variable load into the consumer. The
        // load's definition survives while other consumers still need it.
        let load_of = |v: VR| -> Option<(u32, usize, u8)> {
            let VR::Temp(t) = v else { return None };
            let j = def_idx[&t];
            match code[j].op {
                VOp::LoadVar(idx) => Some((t, j, idx)),
                _ => None,
            }
        };
        if let Some((t, j, idx)) = load_of(a) {
            code[i].op = VOp::VarBinL(op, idx, b);
            let u = uses.get_mut(&t).expect("use count for operand");
            *u -= 1;
            if *u == 0 {
                code[j].dead = true;
            }
            continue;
        }
        if let Some((t, j, idx)) = load_of(b) {
            code[i].op = VOp::VarBinR(op, a, idx);
            let u = uses.get_mut(&t).expect("use count for operand");
            *u -= 1;
            if *u == 0 {
                code[j].dead = true;
            }
            continue;
        }
        // ConstBin: inline a pinned constant as an immediate. (Both sides
        // constant is impossible — the DAG folded that.)
        if let VR::Const(c) = a {
            code[i].op = VOp::ConstBinL(op, dag.cnum(c).expect("const node"), b);
            continue;
        }
        if let VR::Const(c) = b {
            code[i].op = VOp::ConstBinR(op, a, dag.cnum(c).expect("const node"));
        }
    }
    code.retain(|ins| !ins.dead);
}

// ---------------------------------------------------------------------------
// Linear-scan register allocation
// ---------------------------------------------------------------------------

/// Allocate the (fused) virtual code onto a compact register file and
/// produce the final [`RegProgram`]. Pinned layout first — constants still
/// referenced as registers (in deterministic first-reference order), then
/// the `n_pre`-wide prefix window — temporaries after, reused via a LIFO
/// free list as their live ranges end. An operand register whose live
/// range ends at an instruction is freed *before* the destination is
/// assigned, so `r3 = f(r3, r2)`-style in-place reuse falls out naturally
/// (the thunks and the lane kernels read operands before writing `dst`).
fn allocate(code: &[VIns], outputs: &[VR], dag: &Dag, n_pre: u16) -> RegProgram {
    // Constant pool: DAG constants referenced as `VR::Const` by surviving
    // code or outputs, in first-reference order.
    let mut const_pool: Vec<u32> = Vec::new();
    let mut const_reg: HashMap<u32, u16> = HashMap::new();
    {
        let mut note = |v: &VR| {
            if let VR::Const(c) = v {
                if !const_reg.contains_key(c) {
                    let r = u16::try_from(const_pool.len()).expect("constant pool exceeds u16");
                    const_reg.insert(*c, r);
                    const_pool.push(*c);
                }
            }
        };
        for ins in code {
            ins.op.operands(&mut note);
        }
        for o in outputs {
            note(o);
        }
    }
    let nc = u16::try_from(const_pool.len()).expect("constant pool exceeds u16");
    let temp_base = nc + n_pre;

    // Live ranges: last instruction index reading each temporary; output
    // temporaries live to the end of the program.
    let mut last_use: HashMap<u32, usize> = HashMap::new();
    for (i, ins) in code.iter().enumerate() {
        ins.op.operands(|v| {
            if let VR::Temp(t) = v {
                last_use.insert(*t, i);
            }
        });
    }
    for o in outputs {
        if let VR::Temp(t) = o {
            last_use.insert(*t, usize::MAX);
        }
    }

    let mut reg_of: HashMap<u32, u16> = HashMap::new();
    let mut free: Vec<u16> = Vec::new();
    let mut next_reg = temp_base;
    let mut out_code: Vec<RInstr> = Vec::with_capacity(code.len());
    let mut needs_vars = 0usize;
    let mut needs_states = 0usize;
    let mut used: Vec<u32> = Vec::with_capacity(3);

    for (i, ins) in code.iter().enumerate() {
        // A value nobody reads (possible only for fused-away corner cases)
        // is simply not emitted.
        if !last_use.contains_key(&ins.dst) {
            continue;
        }
        used.clear();
        // Resolve operands against the *current* mapping, recording which
        // temporaries this instruction reads.
        let mut resolved = {
            let mut resolve = |v: &VR| -> u16 {
                match *v {
                    VR::Temp(t) => {
                        used.push(t);
                        reg_of[&t]
                    }
                    VR::Const(c) => const_reg[&c],
                    VR::Pre(s) => nc + s,
                }
            };
            match ins.op {
                VOp::LoadVar(idx) => {
                    needs_vars = needs_vars.max(idx as usize + 1);
                    RInstr::LoadVar { dst: 0, idx }
                }
                VOp::LoadState(idx) => {
                    needs_states = needs_states.max(idx as usize + 1);
                    RInstr::LoadState { dst: 0, idx }
                }
                VOp::Un(op, a) => RInstr::Un {
                    op,
                    dst: 0,
                    a: resolve(&a),
                },
                VOp::Bin(op, a, b) => RInstr::Bin {
                    op,
                    dst: 0,
                    a: resolve(&a),
                    b: resolve(&b),
                },
                VOp::VarBinL(op, idx, b) => {
                    needs_vars = needs_vars.max(idx as usize + 1);
                    RInstr::VarBinL {
                        op,
                        dst: 0,
                        idx,
                        b: resolve(&b),
                    }
                }
                VOp::VarBinR(op, a, idx) => {
                    needs_vars = needs_vars.max(idx as usize + 1);
                    RInstr::VarBinR {
                        op,
                        dst: 0,
                        a: resolve(&a),
                        idx,
                    }
                }
                VOp::ConstBinL(op, c, b) => RInstr::ConstBinL {
                    op,
                    dst: 0,
                    c,
                    b: resolve(&b),
                },
                VOp::ConstBinR(op, a, c) => RInstr::ConstBinR {
                    op,
                    dst: 0,
                    a: resolve(&a),
                    c,
                },
                VOp::MulSub(a, b, c) => RInstr::MulSub {
                    dst: 0,
                    a: resolve(&a),
                    b: resolve(&b),
                    c: resolve(&c),
                },
            }
        };
        // Free temporaries whose live range ends here (a temp read twice
        // by the same instruction frees once: `remove` is idempotent).
        for t in &used {
            if last_use.get(t) == Some(&i) {
                if let Some(r) = reg_of.remove(t) {
                    free.push(r);
                }
            }
        }
        let dst = free.pop().unwrap_or_else(|| {
            let r = next_reg;
            next_reg = next_reg.checked_add(1).expect("register file exceeds u16");
            r
        });
        reg_of.insert(ins.dst, dst);
        resolved.set_dst(dst);
        out_code.push(resolved);
    }

    let out_regs: Vec<u16> = outputs
        .iter()
        .map(|o| match *o {
            VR::Temp(t) => reg_of[&t],
            VR::Const(c) => const_reg[&c],
            VR::Pre(s) => nc + s,
        })
        .collect();
    let consts: Vec<f64> = const_pool
        .iter()
        .map(|&c| dag.cnum(c).expect("const node"))
        .collect();
    let mut prog = RegProgram {
        code: out_code,
        consts,
        n_pre,
        n_regs: next_reg,
        outputs: out_regs,
        needs_vars,
        needs_states,
    };
    // Verified DCE: the demand-driven emitter and the fusion peephole
    // should leave nothing dead (fusion retires orphaned definitions
    // itself), so this sweep is a guarantee, not an optimization — and
    // `lint::absint` re-runs the same liveness analysis independently to
    // prove the guarantee held.
    let removed = prog.eliminate_dead();
    debug_assert_eq!(removed, 0, "emitter produced {removed} dead instruction(s)");
    prog.validate();
    prog
}

// ---------------------------------------------------------------------------
// CompiledSystem: the public pipeline entry point
// ---------------------------------------------------------------------------

/// A system of equations compiled through the optimizing pipeline: one
/// shared DAG, a state-independent prefix program, and a core program
/// producing one output per equation.
#[derive(Debug, Clone)]
pub struct CompiledSystem {
    /// Columnar-swept prefix; empty when nothing is state-independent. Its
    /// outputs fill the core's pinned window.
    prefix: RegProgram,
    /// Sequential per-step program; reads the prefix window.
    core: RegProgram,
    n_eqs: usize,
    tier: Tier,
    /// Threaded-code images of `prefix`/`core`. Systems assembled by
    /// [`from_raw_parts`](Self::from_raw_parts) carry none: they may be
    /// deliberately corrupt and must only ever be analyzed, so running one
    /// panics.
    thunks: Option<Thunks>,
}

/// The threaded-code images the scalar paths of a system run.
#[derive(Debug, Clone)]
struct Thunks {
    prefix: ThreadedProgram,
    core: ThreadedProgram,
}

impl PartialEq for CompiledSystem {
    /// Thunk arrays are derived data (a pure function of the programs and
    /// the tier), so equality compares the programs themselves.
    fn eq(&self, other: &Self) -> bool {
        self.prefix == other.prefix
            && self.core == other.core
            && self.n_eqs == other.n_eqs
            && self.tier == other.tier
    }
}

impl CompiledSystem {
    /// Compile `eqs` as one system for `tier`: the lowering passes, the
    /// fixed superinstruction set and the prefix/core split, with both
    /// programs built into threaded code. Panics on an empty slice.
    pub fn compile(eqs: &[Expr], tier: Tier) -> CompiledSystem {
        assert!(!eqs.is_empty(), "cannot compile an empty system");
        let mut dag = Dag::new();
        let roots: Vec<u32> = eqs.iter().map(|e| dag.lower(e)).collect();

        // Reachability from the (post-peephole) roots.
        let n = dag.nodes.len();
        let mut reachable = vec![false; n];
        let mut stack: Vec<u32> = roots.clone();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id as usize], true) {
                continue;
            }
            match dag.node(id) {
                Node::Un(_, a) => stack.push(a),
                Node::Bin(_, a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                _ => {}
            }
        }

        // Prefix slots: maximal state-independent op nodes, i.e. those
        // consumed by a state-dependent parent or serving as an equation
        // root. Slot order follows ascending node id — deterministic.
        let is_candidate = |id: u32| {
            reachable[id as usize]
                && !dag.state_dep[id as usize]
                && matches!(dag.node(id), Node::Un(..) | Node::Bin(..))
        };
        let mut wanted = vec![false; n];
        for &r in &roots {
            if is_candidate(r) {
                wanted[r as usize] = true;
            }
        }
        for id in 0..n as u32 {
            if !reachable[id as usize] || !dag.state_dep[id as usize] {
                continue;
            }
            let (a, b) = match dag.node(id) {
                Node::Un(_, a) => (Some(a), None),
                Node::Bin(_, a, b) => (Some(a), Some(b)),
                _ => (None, None),
            };
            for operand in [a, b].into_iter().flatten() {
                if is_candidate(operand) {
                    wanted[operand as usize] = true;
                }
            }
        }
        let mut pre_slot: Vec<Option<u16>> = vec![None; n];
        let mut n_pre = 0u16;
        for (id, w) in wanted.iter().enumerate() {
            if *w {
                pre_slot[id] = Some(n_pre);
                n_pre = n_pre.checked_add(1).expect("prefix window exceeds u16");
            }
        }

        let prefix = if n_pre > 0 {
            let mut em = Emitter::new(&dag, &pre_slot, true);
            // Outputs in slot order = ascending node id.
            let outs: Vec<VR> = (0..n)
                .filter(|&id| pre_slot[id].is_some())
                .map(|id| em.value(id as u32))
                .collect();
            let mut code = em.code;
            fuse(&mut code, &outs, &dag);
            allocate(&code, &outs, &dag, 0)
        } else {
            RegProgram::empty()
        };

        let mut em = Emitter::new(&dag, &pre_slot, false);
        let outs: Vec<VR> = roots.iter().map(|&r| em.value(r)).collect();
        let mut code = em.code;
        fuse(&mut code, &outs, &dag);
        let core = allocate(&code, &outs, &dag, n_pre);
        debug_assert_eq!(prefix.outputs.len(), n_pre as usize);

        // Threaded-code images: every instruction pre-resolved to a
        // monomorphized thunk. `fast` (relaxed transcendentals) only when
        // the simd tier's kernels are actually live, so the scalar and
        // columnar paths of one system always agree per lane.
        let fast = tier.fidelity() == Fidelity::RelaxedSimd;
        let thunks = Thunks {
            prefix: ThreadedProgram::build(&prefix, fast),
            core: ThreadedProgram::build(&core, fast),
        };

        CompiledSystem {
            prefix,
            core,
            n_eqs: eqs.len(),
            tier,
            thunks: Some(thunks),
        }
    }

    /// [`compile`](Self::compile) with an up-front arity check: every
    /// `Var`/`State` index in `eqs` must be in range for the name-table
    /// arities, so a miscompiled index is a compile-time error rather than
    /// a silent zero at run time.
    pub fn compile_checked(
        eqs: &[Expr],
        n_vars: usize,
        n_states: usize,
        tier: Tier,
    ) -> Result<CompiledSystem, CompileError> {
        for eq in eqs {
            check_arity(eq, n_vars, n_states)?;
        }
        let sys = CompiledSystem::compile(eqs, tier);
        #[cfg(debug_assertions)]
        if let Err(e) = sys.self_check() {
            panic!("compile_checked: structural self-check failed: {e}");
        }
        Ok(sys)
    }

    /// Structural invariants every compilation must satisfy, checked
    /// without running anything: both programs pass
    /// [`RegProgram::check`], the prefix is genuinely state-independent
    /// (no `LoadState`, zero state arity, no pinned window of its own),
    /// its output count matches the core's pinned window width, the core
    /// produces one output per equation, and neither program carries dead
    /// instructions. `compile_checked` debug-asserts this; `lint::absint`
    /// proves the same facts (and more) for artifacts crossing a trust
    /// boundary.
    pub fn self_check(&self) -> Result<(), String> {
        self.prefix.check().map_err(|e| format!("prefix: {e}"))?;
        self.core.check().map_err(|e| format!("core: {e}"))?;
        if self.prefix.n_pre != 0 {
            return Err("prefix program has a pinned prefix window".into());
        }
        if self.prefix.needs_states != 0 {
            return Err("prefix program declares a state arity".into());
        }
        if let Some(i) = self
            .prefix
            .code
            .iter()
            .position(|ins| ins.state_index().is_some())
        {
            return Err(format!("prefix instruction {i} loads a state variable"));
        }
        if self.prefix.outputs.len() != self.core.n_pre as usize {
            return Err(format!(
                "prefix produces {} value(s) but the core window is {} wide",
                self.prefix.outputs.len(),
                self.core.n_pre
            ));
        }
        if self.core.outputs.len() != self.n_eqs {
            return Err(format!(
                "core produces {} output(s) for {} equation(s)",
                self.core.outputs.len(),
                self.n_eqs
            ));
        }
        let dead = self.prefix.dead_instructions().len() + self.core.dead_instructions().len();
        if dead != 0 {
            return Err(format!("{dead} dead instruction(s) survived DCE"));
        }
        Ok(())
    }

    /// Assemble a system directly from pre-built programs, **bypassing**
    /// every pipeline check. For static-analysis tests that need a
    /// deliberately corrupted [`CompiledSystem`] (see
    /// [`RegProgram::from_raw_unchecked`]); such a system must only ever
    /// be analyzed. It carries no threaded code, so every attempt to run
    /// it panics.
    #[doc(hidden)]
    pub fn from_raw_parts(
        prefix: RegProgram,
        core: RegProgram,
        n_eqs: usize,
        tier: Tier,
    ) -> CompiledSystem {
        CompiledSystem {
            prefix,
            core,
            n_eqs,
            tier,
            thunks: None,
        }
    }

    /// Number of equations (= outputs per step).
    pub fn n_eqs(&self) -> usize {
        self.n_eqs
    }

    /// The tier this system was compiled for.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// True when this system executes with relaxed fidelity **on this
    /// machine right now**: the simd tier with the vector kernels live. A
    /// simd-tier system on a machine without AVX2+FMA is bit-exact
    /// threaded code.
    pub fn relaxed(&self) -> bool {
        self.fidelity() == Fidelity::RelaxedSimd
    }

    /// The fidelity this system's execution delivers (see
    /// [`Tier::fidelity`]).
    pub fn fidelity(&self) -> Fidelity {
        self.tier.fidelity()
    }

    /// The threaded code every run goes through. Panics on an
    /// analysis-only system from [`from_raw_parts`](Self::from_raw_parts),
    /// whose bytecode was never validated.
    fn thunks(&self) -> &Thunks {
        self.thunks
            .as_ref()
            .expect("a system assembled by from_raw_parts is analysis-only and cannot run")
    }

    /// Instructions in the sequential core program.
    pub fn core_len(&self) -> usize {
        self.core.len()
    }

    /// Instructions in the columnar prefix program.
    pub fn prefix_len(&self) -> usize {
        self.prefix.len()
    }

    /// Width of the state-independent prefix window.
    pub fn n_pre(&self) -> usize {
        self.prefix.outputs.len()
    }

    /// The core program (bench introspection).
    pub fn core(&self) -> &RegProgram {
        &self.core
    }

    /// The prefix program (bench introspection).
    pub fn prefix(&self) -> &RegProgram {
        &self.prefix
    }

    /// Minimum forcing-vector length required at every step.
    pub fn needs_vars(&self) -> usize {
        self.core.needs_vars.max(self.prefix.needs_vars)
    }

    /// Minimum state-vector length required at every step.
    pub fn needs_states(&self) -> usize {
        self.core.needs_states
    }

    /// Allocate a reusable scratch buffer (constants pre-pinned).
    pub fn scratch(&self) -> SystemScratch {
        let mut core_regs = vec![0.0; self.core.n_regs as usize];
        self.core.init_consts(&mut core_regs);
        let mut prefix_regs = vec![0.0; self.prefix.n_regs as usize];
        self.prefix.init_consts(&mut prefix_regs);
        SystemScratch {
            core_regs,
            prefix_regs,
        }
    }

    /// Evaluate one step standalone (no row session): runs the prefix
    /// program scalar on `ctx.vars`, then the core. `out` receives one
    /// value per equation.
    pub fn eval_step(&self, ctx: &EvalContext<'_>, scratch: &mut SystemScratch, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_eqs);
        let window = self.core.consts.len();
        let thunks = self.thunks();
        if !self.prefix.outputs.is_empty() {
            thunks.prefix.run(ctx.vars, &[], &mut scratch.prefix_regs);
            for (k, &r) in self.prefix.outputs.iter().enumerate() {
                scratch.core_regs[window + k] = scratch.prefix_regs[r as usize];
            }
        }
        thunks.core.run(ctx.vars, ctx.state, &mut scratch.core_regs);
        for (e, &r) in self.core.outputs.iter().enumerate() {
            out[e] = scratch.core_regs[r as usize];
        }
    }

    /// Open a session over a fixed table of forcing rows (`rows[t]` is the
    /// forcing vector of step `t`). The session owns the columnar prefix
    /// buffers; [`SystemSession::step`] sweeps prefix chunks on demand.
    pub fn session<'a, R: AsRef<[f64]>>(&'a self, rows: &'a [R]) -> SystemSession<'a, R> {
        SystemSession {
            sys: self,
            rows,
            prefix: PrefixSweep::new(self, rows.len()),
            scratch: self.scratch(),
        }
    }

    /// Materialize the state-independent prefix columns for every row of
    /// a forcing table, for reuse across lock-step sessions (see
    /// [`LaneForcing::Shared`]). Produced by the same [`LANES`]-chunked
    /// columnar sweep from row 0 that a solo session runs on demand, so the
    /// values are bit-identical to what any session over `rows` (or a
    /// prefix of it) would compute.
    pub fn sweep_prefix<R: AsRef<[f64]>>(&self, rows: &[R]) -> PrefixTable {
        let mut sweep = PrefixSweep::new(self, rows.len());
        if sweep.table.n_pre > 0 && !rows.is_empty() {
            sweep.fill_through(self, rows, rows.len() - 1);
        }
        sweep.table
    }

    /// Open a *lock-step* session: up to [`LANES`] concurrent simulations
    /// of this system stepped together, each lane carrying its own state,
    /// with one core dispatch per step for all of them — the work-sharing
    /// that lets a batching server answer K concurrent requests for one
    /// model, or a what-if sweep run K variants, at far below K× the solo
    /// cost. [`LaneForcing`] says where the lanes read their rows: one
    /// shared table with its materialized prefix, or one table per lane,
    /// whose prefixes are swept at open with lane 0's work reused where
    /// another lane's forcing inputs equal lane 0's. Per-lane results are
    /// bit-identical to running each trajectory through its own
    /// [`session`](Self::session).
    ///
    /// The session owns the SIMD padding rule: with the vector kernels
    /// live, a group at least half a stripe wide runs as a full [`LANES`]
    /// stripe, so the core takes the `__m256d` paths instead of per-lane
    /// scalar loops. The padded lanes replay lane 0 (its state, rows and
    /// prefix) and their results are dropped; lanes are arithmetically
    /// independent, so the real lanes' bits are unchanged.
    pub fn lane_session<'a, R: AsRef<[f64]>>(
        &'a self,
        forcing: LaneForcing<'a, R>,
    ) -> LaneSession<'a, R> {
        // The lane kernels read registers unchecked: refuse an
        // analysis-only system before they ever see its bytecode.
        self.thunks();
        let (k, prefixes) = match &forcing {
            LaneForcing::Shared {
                rows,
                prefix,
                lanes,
            } => {
                let n_pre = self.prefix.outputs.len();
                assert_eq!(
                    prefix.n_pre, n_pre,
                    "prefix table width does not match this system"
                );
                assert!(
                    n_pre == 0 || prefix.rows() >= rows.len(),
                    "prefix table covers {} rows, session needs {}",
                    prefix.rows(),
                    rows.len()
                );
                (*lanes, Vec::new())
            }
            LaneForcing::PerLane(tables) => {
                let n_rows = tables.first().map_or(0, |t| t.len());
                assert!(
                    tables.iter().all(|t| t.len() == n_rows),
                    "per-lane tables must share one length"
                );
                (tables.len(), self.sweep_lane_prefixes(tables).0)
            }
        };
        assert!(
            (1..=LANES).contains(&k),
            "lane count {k} out of 1..={LANES}"
        );
        let width = if crate::simd::active() && (PAD_MIN..LANES).contains(&k) {
            LANES
        } else {
            k
        };
        let mut core_lane_regs = vec![0.0; self.core.n_regs as usize * LANES];
        self.core.init_consts_lanes(&mut core_lane_regs);
        LaneSession {
            sys: self,
            forcing,
            prefixes,
            k,
            width,
            padded: Vec::new(),
            core_lane_regs,
        }
    }

    /// The prefix tables of a sweep's per-lane forcing tables, each equal
    /// bit for bit to [`sweep_prefix`](Self::sweep_prefix) over its table,
    /// plus how many instruction stripes ran (tests). The tables are swept
    /// together, [`LANES`] rows at a time: lane 0 runs every prefix
    /// instruction and keeps its output stripe; every other lane copies
    /// lane 0's stripe for each instruction whose forcing columns (see
    /// [`RegProgram::var_deps`]) hold the same bits as lane 0's over the
    /// chunk, and runs the kernel for the rest. A copy is exact: lanes are
    /// arithmetically independent, every lane's chunks start at row 0, and
    /// the same kernel at the same width and `fast` flag turns equal input
    /// bits into equal output bits. `-0.0` against `+0.0`, or two NaN
    /// payloads, count as different and only cost a recompute.
    pub(crate) fn sweep_lane_prefixes<R: AsRef<[f64]>>(
        &self,
        tables: &[&[R]],
    ) -> (Vec<PrefixTable>, usize) {
        // Same refusal as `lane_session`: the sweep runs the lane kernels.
        self.thunks();
        let prog = &self.prefix;
        let n_rows = tables.first().map_or(0, |t| t.len());
        let mut out: Vec<PrefixTable> = tables
            .iter()
            .map(|_| PrefixTable::new(prog.outputs.len(), n_rows))
            .collect();
        if prog.outputs.is_empty() {
            return (out, 0);
        }
        debug_assert!(tables
            .iter()
            .all(|t| t.iter().all(|r| r.as_ref().len() >= prog.needs_vars)));
        let deps = prog.var_deps();
        let cols = prog.vars_read();
        // One register file serves every lane in turn: each register a
        // lane reads was written earlier in the same lane's pass over the
        // chunk, or is a pinned constant. `lane_instr`'s contract holds as
        // in `run_lanes`: a validated program (checked above), `regs`
        // exactly `n_regs * LANES` long, and `m <= LANES`.
        let mut regs = vec![0.0; prog.n_regs as usize * LANES];
        prog.init_consts_lanes(&mut regs);
        // Lane 0's output stripe of every instruction in the current chunk.
        let mut lane0 = vec![0.0; prog.code.len() * LANES];
        let fast = self.relaxed();
        let mut ran = 0;
        for first in (0..n_rows).step_by(LANES) {
            let m = LANES.min(n_rows - first);
            let base = &tables[0][first..first + m];
            for (l, (table, prefix)) in tables.iter().zip(&mut out).enumerate() {
                let rows = &table[first..first + m];
                // Lane 0 has no lane to copy from: it differs in every
                // column, and even an instruction reading none runs there.
                let diff = if l == 0 {
                    u64::MAX
                } else {
                    differing_columns(&cols, base, rows)
                };
                for ((ins, &dep), saved) in prog
                    .code
                    .iter()
                    .zip(&deps)
                    .zip(lane0.chunks_exact_mut(LANES))
                {
                    let d = ins.dst() as usize * LANES;
                    if l > 0 && dep & diff == 0 {
                        regs[d..d + m].copy_from_slice(&saved[..m]);
                    } else {
                        lane_instr(ins, rows, &[], 0, m, &mut regs, fast);
                        ran += 1;
                        if l == 0 {
                            saved[..m].copy_from_slice(&regs[d..d + m]);
                        }
                    }
                }
                prefix.store_chunk(first, m, &regs, &prog.outputs);
            }
        }
        (out, ran)
    }

    /// The forcing columns this system reads, ascending and without
    /// repeats. No other column of a forcing row reaches an output, so a
    /// caller building tables for this system may leave the rest as they
    /// are.
    pub fn vars_read(&self) -> Vec<u8> {
        let mut cols = self.prefix.vars_read();
        cols.extend(self.core.vars_read());
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// The [`col_bit`] mask of the columns `cols` whose bits differ between
/// two equally long row slices anywhere.
fn differing_columns<R: AsRef<[f64]>>(cols: &[u8], a: &[R], b: &[R]) -> u64 {
    let mut diff = 0;
    for &c in cols {
        let c_at = |r: &R| r.as_ref()[c as usize].to_bits();
        if a.iter().zip(b).any(|(x, y)| c_at(x) != c_at(y)) {
            diff |= col_bit(c);
        }
    }
    diff
}

/// A lock-step group at least this wide runs padded to a full [`LANES`]
/// stripe when the vector kernels are live: from half-occupancy up, one
/// full-stripe vector dispatch beats `k` scalar per-lane loops.
const PAD_MIN: usize = LANES / 2;

/// Materialized state-independent prefix columns over a fixed forcing
/// table (`values[t * n_pre + slot]`), produced by
/// [`CompiledSystem::sweep_prefix`] and shared across [`LaneSession`]s —
/// the unit a serving registry caches (and an LRU eviction destroys) per
/// (model, forcing table).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixTable {
    values: Vec<f64>,
    n_pre: usize,
}

impl PrefixTable {
    /// Forcing rows covered.
    pub fn rows(&self) -> usize {
        self.values.len().checked_div(self.n_pre).unwrap_or(0)
    }

    /// Resident size of the materialized columns in bytes (the LRU
    /// accounting unit).
    pub fn bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }

    /// A zeroed table of `rows` rows, `n_pre` values each.
    fn new(n_pre: usize, rows: usize) -> PrefixTable {
        PrefixTable {
            values: vec![0.0; n_pre * rows],
            n_pre,
        }
    }

    /// The prefix values of row `t` (empty when the system has no prefix).
    fn row(&self, t: usize) -> &[f64] {
        &self.values[t * self.n_pre..(t + 1) * self.n_pre]
    }

    /// Store rows `first..first + m` from a swept chunk: lane `l` of
    /// output register `outputs[j]` in `regs` is slot `j` of row
    /// `first + l`.
    fn store_chunk(&mut self, first: usize, m: usize, regs: &[f64], outputs: &[u16]) {
        for l in 0..m {
            let row = (first + l) * self.n_pre;
            for (j, &r) in outputs.iter().enumerate() {
                self.values[row + j] = regs[r as usize * LANES + l];
            }
        }
    }
}

/// A columnar prefix sweep in progress over one forcing table: rows
/// `0..filled` of `table` are materialized. The one chunk loop behind a
/// solo session's on-demand sweep and [`CompiledSystem::sweep_prefix`].
struct PrefixSweep {
    table: PrefixTable,
    filled: usize,
    lane_regs: Vec<f64>,
}

impl PrefixSweep {
    fn new(sys: &CompiledSystem, rows: usize) -> PrefixSweep {
        // Same refusal as `lane_session`: the sweep runs the lane kernels.
        sys.thunks();
        let n_pre = sys.prefix.outputs.len();
        let mut lane_regs = if n_pre > 0 {
            vec![0.0; sys.prefix.n_regs as usize * LANES]
        } else {
            Vec::new()
        };
        sys.prefix.init_consts_lanes(&mut lane_regs);
        PrefixSweep {
            table: PrefixTable::new(n_pre, rows),
            filled: 0,
            lane_regs,
        }
    }

    /// Sweep [`LANES`]-row chunks of `rows` (the table this sweep was
    /// opened over) until row `t` is materialized.
    fn fill_through<R: AsRef<[f64]>>(&mut self, sys: &CompiledSystem, rows: &[R], t: usize) {
        while self.filled <= t {
            let m = LANES.min(rows.len() - self.filled);
            sys.prefix.run_lanes(
                &rows[self.filled..],
                &[],
                0,
                m,
                &mut self.lane_regs,
                sys.relaxed(),
            );
            self.table
                .store_chunk(self.filled, m, &self.lane_regs, &sys.prefix.outputs);
            self.filled += m;
        }
    }
}

/// Reusable register buffers for [`CompiledSystem::eval_step`].
#[derive(Debug, Clone)]
pub struct SystemScratch {
    core_regs: Vec<f64>,
    prefix_regs: Vec<f64>,
}

/// A per-candidate evaluation session over a fixed forcing table. Prefix
/// values are computed columnar ([`LANES`] rows per dispatch) in on-demand
/// chunks, so a short-circuited evaluation never sweeps rows it does not
/// reach; then the sequential core consumes them row by row.
pub struct SystemSession<'a, R: AsRef<[f64]>> {
    sys: &'a CompiledSystem,
    rows: &'a [R],
    prefix: PrefixSweep,
    scratch: SystemScratch,
}

impl<R: AsRef<[f64]>> SystemSession<'_, R> {
    /// Evaluate step `t` under `state`; `out` receives one value per
    /// equation.
    pub fn step(&mut self, t: usize, state: &[f64], out: &mut [f64]) {
        assert!(
            t < self.rows.len(),
            "step {t} out of {} rows",
            self.rows.len()
        );
        assert_eq!(out.len(), self.sys.n_eqs);
        let n_pre = self.sys.prefix.outputs.len();
        if n_pre > 0 {
            if self.prefix.filled <= t {
                self.prefix.fill_through(self.sys, self.rows, t);
            }
            let window = self.sys.core.consts.len();
            self.scratch.core_regs[window..window + n_pre]
                .copy_from_slice(self.prefix.table.row(t));
        }
        self.sys
            .thunks()
            .core
            .run(self.rows[t].as_ref(), state, &mut self.scratch.core_regs);
        for (e, &r) in self.sys.core.outputs.iter().enumerate() {
            out[e] = self.scratch.core_regs[r as usize];
        }
    }

    /// Forcing rows materialized in the prefix buffer so far (tests).
    pub fn rows_swept(&self) -> usize {
        self.prefix.filled
    }
}

/// Where the lanes of a [`LaneSession`] read their forcing rows.
pub enum LaneForcing<'a, R> {
    /// `lanes` trajectories over one shared table — coalesced requests
    /// for one model. `prefix` must come from
    /// [`CompiledSystem::sweep_prefix`] on the same system, over `rows` or
    /// over a longer table of which `rows` is a prefix (width and length
    /// are asserted; provenance is the caller's contract), so a registry
    /// can cache one table per (model, forcing table) and share it across
    /// request horizons.
    Shared {
        /// Forcing rows, `rows[t]` at step `t`.
        rows: &'a [R],
        /// Materialized prefix columns covering `rows`.
        prefix: &'a PrefixTable,
        /// Trajectories in lock-step.
        lanes: usize,
    },
    /// One forcing table per lane, all the same length — a what-if
    /// sweep's variants. The prefixes are swept when the session opens,
    /// chunk by chunk: lane 0 in full, and every other lane recomputes
    /// only the prefix instructions whose forcing columns differ from
    /// lane 0's in that chunk, copying lane 0's values for the rest.
    PerLane(&'a [&'a [R]]),
}

/// Up to [`LANES`] trajectories of one system stepped in lock-step, one
/// core dispatch per step for all of them. Opened by
/// [`CompiledSystem::lane_session`].
pub struct LaneSession<'a, R: AsRef<[f64]>> {
    sys: &'a CompiledSystem,
    forcing: LaneForcing<'a, R>,
    /// Per-lane prefix columns ([`LaneForcing::PerLane`] only).
    prefixes: Vec<PrefixTable>,
    /// Lanes the caller steps.
    k: usize,
    /// Lanes executed: `k`, or [`LANES`] when padded.
    width: usize,
    /// Lane-major states at the executed width (padded sessions only).
    padded: Vec<f64>,
    core_lane_regs: Vec<f64>,
}

impl<R: AsRef<[f64]>> LaneSession<'_, R> {
    /// Number of trajectories in lock-step.
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Rows in the forcing table (every lane's, for per-lane tables).
    pub fn rows(&self) -> usize {
        match &self.forcing {
            LaneForcing::Shared { rows, .. } => rows.len(),
            LaneForcing::PerLane(tables) => tables[0].len(),
        }
    }

    /// Evaluate step `t` for all `k` trajectories. `states` is lane-major
    /// (`states[l * stride + idx]`, `stride = states.len() / k`); `out`
    /// receives `k * n_eqs` values, trajectory-major
    /// (`out[l * n_eqs + e]`).
    pub fn step(&mut self, t: usize, states: &[f64], out: &mut [f64]) {
        let (k, m) = (self.k, self.width);
        let n_rows = self.rows();
        assert!(t < n_rows, "step {t} out of {n_rows} rows");
        assert!(states.len().is_multiple_of(k), "states not lane-major");
        let stride = states.len() / k;
        let n_eqs = self.sys.n_eqs;
        assert_eq!(out.len(), k * n_eqs);
        let states = if m > k {
            self.padded.clear();
            self.padded.extend_from_slice(states);
            for _ in k..m {
                self.padded.extend_from_within(..stride);
            }
            &self.padded[..]
        } else {
            states
        };
        let window = self.sys.core.consts.len();
        let regs = &mut self.core_lane_regs;
        let fast = self.sys.relaxed();
        match &self.forcing {
            LaneForcing::Shared { rows, prefix, .. } => {
                // Broadcast this row's prefix values across the lanes of
                // the core's pinned window.
                for (j, &v) in prefix.row(t).iter().enumerate() {
                    let d = (window + j) * LANES;
                    regs[d..d + m].fill(v);
                }
                let row = rows[t].as_ref();
                self.sys
                    .core
                    .run_lanes_one_row(row, states, stride, m, regs, fast);
            }
            LaneForcing::PerLane(tables) => {
                // Each lane reads its own table's row and prefix row at
                // `t`; padded lanes read lane 0's.
                let mut rows: [&[f64]; LANES] = [&[]; LANES];
                for (l, row) in rows[..m].iter_mut().enumerate() {
                    let src = if l < k { l } else { 0 };
                    *row = tables[src][t].as_ref();
                    for (j, &v) in self.prefixes[src].row(t).iter().enumerate() {
                        regs[(window + j) * LANES + l] = v;
                    }
                }
                self.sys
                    .core
                    .run_lanes(&rows[..m], states, stride, m, regs, fast);
            }
        }
        for l in 0..k {
            for (e, &r) in self.sys.core.outputs.iter().enumerate() {
                out[l * n_eqs + e] = regs[r as usize * LANES + l];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Groups: one merged prefix for many systems
// ---------------------------------------------------------------------------

/// The exact identity of one value in a group's merged prefix: the
/// instruction's form and operator, its operands as merged registers (one
/// per distinct value; pinned constants by bit pattern), its forcing
/// column and its immediate's bit pattern. Equal keys run the same kernel
/// on the same operand bits, so they give the same bits. Keys are compared
/// whole, never by hash alone; `-0.0` against `0.0`, or two NaN payloads,
/// are two values, and so are a fused form and its unfused spelling.
#[derive(Hash, PartialEq, Eq)]
enum ValueKey {
    LoadVar(u8),
    Un(UnOp, u16),
    Bin(BinOp, u16, u16),
    VarBinL(BinOp, u8, u16),
    VarBinR(BinOp, u16, u8),
    ConstBinL(BinOp, u64, u16),
    ConstBinR(BinOp, u16, u64),
    MulSub(u16, u16, u16),
}

impl ValueKey {
    /// The key of a prefix instruction whose operands are merged registers.
    fn of(ins: RInstr) -> ValueKey {
        match ins {
            RInstr::LoadVar { idx, .. } => ValueKey::LoadVar(idx),
            RInstr::LoadState { .. } => unreachable!("a prefix program loads no state"),
            RInstr::Un { op, a, .. } => ValueKey::Un(op, a),
            RInstr::Bin { op, a, b, .. } => ValueKey::Bin(op, a, b),
            RInstr::VarBinL { op, idx, b, .. } => ValueKey::VarBinL(op, idx, b),
            RInstr::VarBinR { op, a, idx, .. } => ValueKey::VarBinR(op, a, idx),
            RInstr::ConstBinL { op, c, b, .. } => ValueKey::ConstBinL(op, c.to_bits(), b),
            RInstr::ConstBinR { op, a, c, .. } => ValueKey::ConstBinR(op, a, c.to_bits()),
            RInstr::MulSub { a, b, c, .. } => ValueKey::MulSub(a, b, c),
        }
    }
}

/// A register index of a merged program.
fn merged_reg(r: usize) -> u16 {
    u16::try_from(r).expect("a group's merged prefix outgrew the u16 register file")
}

/// The prefix programs of a group merged by value numbering into one
/// validated [`RegProgram`]: the pinned constants, deduplicated by bit
/// pattern, then one instruction and one register per distinct
/// [`ValueKey`], in first-seen order, so every operand is written before
/// it is read. No register is reused: an instruction a sweep skips leaves
/// a stale stripe that no member stepping in that chunk reads.
struct MergedPrefix {
    prog: RegProgram,
    /// Member `i`'s prefix output `j` is register `windows[i][j]`.
    windows: Vec<Vec<u16>>,
    /// The merged instructions member `i` needs, ascending: the one that
    /// computes each of its own prefix instructions' values. Closed under
    /// operands, because a key names its operands' values.
    needs: Vec<Vec<u32>>,
}

impl MergedPrefix {
    fn new(progs: &[&RegProgram]) -> MergedPrefix {
        let mut consts = Vec::new();
        let mut const_reg: HashMap<u64, u16> = HashMap::new();
        for p in progs {
            for &c in &p.consts {
                const_reg.entry(c.to_bits()).or_insert_with(|| {
                    consts.push(c);
                    merged_reg(consts.len() - 1)
                });
            }
        }
        let nc = consts.len();
        let mut code: Vec<RInstr> = Vec::new();
        let mut values: HashMap<ValueKey, u16> = HashMap::new();
        let mut windows = Vec::with_capacity(progs.len());
        let mut needs = Vec::with_capacity(progs.len());
        let mut needs_vars = 0;
        // The merged register each of the current member's registers holds.
        let mut merged: Vec<u16> = Vec::new();
        for p in progs {
            merged.clear();
            merged.extend(p.consts.iter().map(|c| const_reg[&c.to_bits()]));
            merged.resize(p.n_regs as usize, 0);
            let mut mine = Vec::with_capacity(p.code.len());
            for ins in &p.code {
                let renamed = ins.map_reads(|r| merged[r as usize]);
                let r = *values.entry(ValueKey::of(renamed)).or_insert_with(|| {
                    let r = merged_reg(nc + code.len());
                    let mut def = renamed;
                    def.set_dst(r);
                    code.push(def);
                    r
                });
                merged[ins.dst() as usize] = r;
                mine.push(u32::from(r) - nc as u32);
            }
            mine.sort_unstable();
            mine.dedup();
            needs.push(mine);
            windows.push(p.outputs.iter().map(|&o| merged[o as usize]).collect());
            needs_vars = needs_vars.max(p.needs_vars);
        }
        let prog = RegProgram {
            n_regs: merged_reg(nc + code.len()),
            code,
            consts,
            n_pre: 0,
            outputs: windows.concat(),
            needs_vars,
            needs_states: 0,
        };
        prog.validate();
        MergedPrefix {
            prog,
            windows,
            needs,
        }
    }
}

impl CompiledSystem {
    /// Open a session that steps several systems of one tier over one
    /// forcing table — an evaluation round's candidates. Their prefix
    /// programs merge by value numbering into one program, and each
    /// distinct instruction is swept once per [`LANES`]-row chunk for
    /// the members still stepping; each member's core then steps on its
    /// own over the shared stripes. Every member's outputs are
    /// bit-identical to its own [`session`](Self::session): each value is
    /// computed by the same kernel, at the same width and `fast` flag,
    /// from the same operand bits.
    ///
    /// Panics when the members mix tiers, when one is analysis-only, or
    /// when the merged prefix outgrows the `u16` register file
    /// ([`group_runs`](Self::group_runs) cuts a list into groups that fit).
    pub fn group_session<'a, R: AsRef<[f64]>>(
        members: &[&'a CompiledSystem],
        rows: &'a [R],
    ) -> GroupSession<'a, R> {
        let tier = members.first().map(|s| s.tier);
        assert!(
            members.iter().all(|s| Some(s.tier) == tier),
            "a group mixes tiers"
        );
        // The sweep runs the lane kernels and the steps the threaded
        // cores: refuse analysis-only systems before merging their code.
        for s in members {
            s.thunks();
        }
        let progs: Vec<&RegProgram> = members.iter().map(|s| &s.prefix).collect();
        let prefix = MergedPrefix::new(&progs);
        let mut lane_regs = vec![0.0; prefix.prog.n_regs as usize * LANES];
        prefix.prog.init_consts_lanes(&mut lane_regs);
        let cores = members
            .iter()
            .map(|s| {
                let mut regs = vec![0.0; s.core.n_regs as usize];
                s.core.init_consts(&mut regs);
                regs
            })
            .collect();
        GroupSession {
            members: members.to_vec(),
            rows,
            stamps: vec![usize::MAX; prefix.prog.code.len()],
            swept: vec![usize::MAX; members.len()],
            prefix,
            lane_regs,
            chunk: 0,
            cores,
            fast: members.first().is_some_and(|s| s.relaxed()),
        }
    }

    /// Cut `members` into consecutive runs that
    /// [`group_session`](Self::group_session) can merge: a run's prefix
    /// instructions and constants, counted with repeats, bound its merged
    /// register file, which `u16` indexes.
    pub fn group_runs(members: &[&CompiledSystem]) -> Vec<std::ops::Range<usize>> {
        let mut runs = Vec::new();
        let (mut start, mut regs) = (0, 0);
        for (i, s) in members.iter().enumerate() {
            let need = s.prefix.code.len() + s.prefix.consts.len();
            if i > start && regs + need > usize::from(u16::MAX) {
                runs.push(start..i);
                (start, regs) = (i, 0);
            }
            regs += need;
        }
        if start < members.len() {
            runs.push(start..members.len());
        }
        runs
    }
}

/// Several compiled systems stepped over one forcing table with one merged
/// prefix program. Opened by [`CompiledSystem::group_session`].
pub struct GroupSession<'a, R: AsRef<[f64]>> {
    members: Vec<&'a CompiledSystem>,
    rows: &'a [R],
    prefix: MergedPrefix,
    /// One [`LANES`]-wide stripe per merged register.
    lane_regs: Vec<f64>,
    /// The chunk whose rows each merged instruction's stripe holds.
    stamps: Vec<usize>,
    /// The chunk each member's needed instructions were last swept for.
    swept: Vec<usize>,
    /// The latest chunk any member has stepped in.
    chunk: usize,
    /// Each member's scalar core register file.
    cores: Vec<Vec<f64>>,
    fast: bool,
}

impl<R: AsRef<[f64]>> GroupSession<'_, R> {
    /// Evaluate member `i`'s step `t` under `state`; `out` receives one
    /// value per equation. Members step in any order and may stop at any
    /// step; a member that stops costs no more sweeping. The stripes hold
    /// one chunk at a time, so no step may return to a chunk before the
    /// latest one any member has stepped in.
    pub fn step(&mut self, i: usize, t: usize, state: &[f64], out: &mut [f64]) {
        let sys = self.members[i];
        assert!(
            t < self.rows.len(),
            "step {t} out of {} rows",
            self.rows.len()
        );
        assert_eq!(out.len(), sys.n_eqs);
        let chunk = t / LANES;
        assert!(
            chunk >= self.chunk,
            "step {t} returns to a chunk the group has left"
        );
        self.chunk = chunk;
        if self.swept[i] != chunk {
            self.sweep(i, chunk);
        }
        let window = sys.core.consts.len();
        let regs = &mut self.cores[i];
        for (j, &r) in self.prefix.windows[i].iter().enumerate() {
            regs[window + j] = self.lane_regs[r as usize * LANES + t % LANES];
        }
        sys.thunks().core.run(self.rows[t].as_ref(), state, regs);
        for (e, &r) in sys.core.outputs.iter().enumerate() {
            out[e] = regs[r as usize];
        }
    }

    /// Sweep `chunk` for the merged instructions member `i` needs that no
    /// member has swept in it yet, in program order.
    fn sweep(&mut self, i: usize, chunk: usize) {
        let first = chunk * LANES;
        let m = LANES.min(self.rows.len() - first);
        let rows = &self.rows[first..first + m];
        for &j in &self.prefix.needs[i] {
            let stamp = &mut self.stamps[j as usize];
            if *stamp != chunk {
                // `lane_instr`'s contract holds as in `run_lanes`: the
                // merged program is validated, `lane_regs` is exactly
                // `n_regs * LANES` long, and `m <= LANES`.
                let ins = &self.prefix.prog.code[j as usize];
                lane_instr(ins, rows, &[], 0, m, &mut self.lane_regs, self.fast);
                *stamp = chunk;
            }
        }
        self.swept[i] = chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ParamSlot;

    fn feq(a: f64, b: f64) -> bool {
        (a.is_nan() && b.is_nan()) || a == b
    }

    fn p(kind: u16, value: f64) -> Expr {
        Expr::Param(ParamSlot { kind, value })
    }

    /// A miniature river-like pair: shared growth term, state-dependent
    /// couplings, a state-independent forcing factor.
    fn sample_system() -> [Expr; 2] {
        // prefix-able factor: (v0 / 40) * max(v1, 0.5)
        let forcing = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Div, Expr::Var(0), Expr::Num(40.0)),
            Expr::bin(BinOp::Max, Expr::Var(1), Expr::Num(0.5)),
        );
        // shared term: s0 * forcing
        let growth = Expr::bin(BinOp::Mul, Expr::State(0), forcing.clone());
        let eq0 = Expr::bin(
            BinOp::Sub,
            growth.clone(),
            Expr::bin(
                BinOp::Mul,
                p(0, 0.2),
                Expr::bin(BinOp::Mul, Expr::State(0), Expr::State(1)),
            ),
        );
        let eq1 = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Mul, p(1, 0.6), growth),
            Expr::bin(BinOp::Mul, p(2, 0.1), Expr::State(1)),
        );
        [eq0, eq1]
    }

    fn check_equivalence(eqs: &[Expr], vars: &[f64], state: &[f64], tier: Tier) {
        let sys = CompiledSystem::compile(eqs, tier);
        let mut scratch = sys.scratch();
        let ctx = EvalContext { vars, state };
        let mut got = vec![0.0; eqs.len()];
        sys.eval_step(&ctx, &mut scratch, &mut got);
        for (e, eq) in eqs.iter().enumerate() {
            let want = eq.eval(&ctx);
            assert!(
                feq(got[e], want),
                "{tier:?} eq{e}: got {} want {}",
                got[e],
                want
            );
        }
    }

    /// Every tier whose execution is bit-exact on this machine. The simd
    /// tier joins only where its vector kernels are *not* live (feature
    /// off or no AVX2+FMA), i.e. exactly when it degrades to threaded.
    fn exact_tiers() -> Vec<Tier> {
        Tier::ALL
            .into_iter()
            .filter(|t| t.fidelity() == Fidelity::BitExact)
            .collect()
    }

    /// Every tier, the simd tier possibly relaxed — for tests comparing
    /// the VM's own execution paths against each other, which must agree
    /// bitwise regardless of fidelity.
    fn all_tiers() -> [Tier; 2] {
        Tier::ALL
    }

    #[test]
    fn all_tiers_match_interpreter_on_sample() {
        let eqs = sample_system();
        for tier in exact_tiers() {
            check_equivalence(&eqs, &[20.0, 1.4], &[8.0, 1.2], tier);
            check_equivalence(&eqs, &[0.0, 0.0], &[0.0, 0.0], tier);
            check_equivalence(&eqs, &[-3.0, 1e9], &[1e9, -1e9], tier);
        }
    }

    #[test]
    fn cse_shares_subexpressions_across_equations() {
        let eqs = sample_system();
        let sys = CompiledSystem::compile(&eqs, Tier::Threaded);
        let separate: usize = eqs.iter().map(|e| e.size()).sum();
        // The shared growth term and forcing factor must be emitted once.
        assert!(
            sys.core_len() + sys.prefix_len() < separate,
            "CSE failed: {} + {} !< {}",
            sys.core_len(),
            sys.prefix_len(),
            separate
        );
    }

    #[test]
    fn peephole_identities_are_value_preserving() {
        let x = || Expr::bin(BinOp::Add, Expr::Var(0), Expr::State(0));
        let cases = [
            Expr::bin(BinOp::Mul, x(), Expr::Num(1.0)),
            Expr::bin(BinOp::Mul, Expr::Num(1.0), x()),
            Expr::bin(BinOp::Add, x(), Expr::Num(0.0)),
            Expr::bin(BinOp::Sub, x(), Expr::Num(0.0)),
            Expr::bin(BinOp::Sub, Expr::Num(0.0), x()),
            Expr::bin(BinOp::Div, x(), Expr::Num(1.0)),
            Expr::bin(BinOp::Pow, x(), Expr::Num(1.0)),
            Expr::bin(BinOp::Min, x(), x()),
            Expr::bin(BinOp::Max, x(), x()),
            Expr::un(UnOp::Neg, Expr::un(UnOp::Neg, x())),
        ];
        for (vars, state) in [
            (vec![2.5, 0.0], vec![-1.5]),
            (vec![0.0, 0.0], vec![0.0]),
            (vec![-7.0, 0.0], vec![7.0]),
            (vec![1e12, 0.0], vec![-1e12]),
        ] {
            for (i, eq) in cases.iter().enumerate() {
                for tier in exact_tiers() {
                    let sys = CompiledSystem::compile(std::slice::from_ref(eq), tier);
                    let ctx = EvalContext {
                        vars: &vars,
                        state: &state,
                    };
                    let mut out = [0.0];
                    sys.eval_step(&ctx, &mut sys.scratch(), &mut out);
                    assert!(
                        feq(out[0], eq.eval(&ctx)),
                        "case {i} tier {tier:?} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn pow_one_rewrites_but_keeps_protected_value() {
        // pow(x, 1) is NOT x under protected semantics; the peephole must
        // preserve exp(log(|x| max ε)) exactly.
        let eq = Expr::bin(BinOp::Pow, Expr::Var(0), Expr::Num(1.0));
        for v in [-3.0, 0.0, 2.0, 1e-30] {
            let ctx = EvalContext {
                vars: &[v],
                state: &[],
            };
            let sys = CompiledSystem::compile(std::slice::from_ref(&eq), Tier::Threaded);
            let mut out = [0.0];
            sys.eval_step(&ctx, &mut sys.scratch(), &mut out);
            assert!(feq(out[0], eq.eval(&ctx)), "pow(x,1) diverged at x={v}");
        }
    }

    #[test]
    fn constant_system_folds_to_pinned_output() {
        let eq = Expr::bin(
            BinOp::Add,
            Expr::Num(2.0),
            Expr::bin(BinOp::Mul, Expr::Num(3.0), p(0, 4.0)),
        );
        let sys = CompiledSystem::compile(std::slice::from_ref(&eq), Tier::Threaded);
        assert_eq!(sys.core_len(), 0, "constant equation should emit no code");
        let mut out = [0.0];
        sys.eval_step(
            &EvalContext {
                vars: &[],
                state: &[],
            },
            &mut sys.scratch(),
            &mut out,
        );
        assert_eq!(out[0], 14.0);
    }

    #[test]
    fn split_moves_state_independent_work_to_prefix() {
        let eqs = sample_system();
        let sys = CompiledSystem::compile(&eqs, Tier::Threaded);
        assert!(sys.n_pre() > 0, "sample system has a forcing-only factor");
    }

    #[test]
    fn session_matches_eval_step_across_chunk_boundaries() {
        let eqs = sample_system();
        // 3 chunks incl. a ragged tail.
        let n_rows = LANES * 2 + 7;
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|t| {
                vec![
                    (t as f64 * 0.37).sin() * 30.0,
                    (t as f64 * 0.11).cos() * 2.0,
                ]
            })
            .collect();
        for tier in all_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);
            let mut session = sys.session(&rows);
            let mut scratch = sys.scratch();
            let mut state = [8.0, 1.2];
            for (t, row) in rows.iter().enumerate() {
                let ctx = EvalContext {
                    vars: row,
                    state: &state,
                };
                let mut want = [0.0, 0.0];
                sys.eval_step(&ctx, &mut scratch, &mut want);
                let mut got = [0.0, 0.0];
                session.step(t, &state, &mut got);
                assert!(
                    feq(got[0], want[0]) && feq(got[1], want[1]),
                    "session diverged at t={t} for {tier:?}"
                );
                // Drive a state recurrence so core really is sequential.
                state[0] = (state[0] + 0.1 * got[0]).clamp(0.0, 1e6);
                state[1] = (state[1] + 0.1 * got[1]).clamp(0.0, 1e6);
            }
        }
    }

    #[test]
    fn session_sweeps_prefix_lazily() {
        let eqs = sample_system();
        let rows: Vec<Vec<f64>> = (0..LANES * 4).map(|t| vec![t as f64, 1.0]).collect();
        let sys = CompiledSystem::compile(&eqs, Tier::Threaded);
        let mut session = sys.session(&rows);
        let mut out = [0.0, 0.0];
        session.step(0, &[1.0, 1.0], &mut out);
        assert_eq!(session.rows_swept(), LANES, "one chunk per first step");
        session.step(LANES - 1, &[1.0, 1.0], &mut out);
        assert_eq!(session.rows_swept(), LANES, "no re-sweep inside chunk");
        session.step(LANES, &[1.0, 1.0], &mut out);
        assert_eq!(session.rows_swept(), 2 * LANES);
    }

    /// How many merged instructions hold chunk `chunk`'s rows.
    fn swept_in<R: AsRef<[f64]>>(group: &GroupSession<'_, R>, chunk: usize) -> usize {
        group.stamps.iter().filter(|&&s| s == chunk).count()
    }

    #[test]
    fn group_shares_values_and_sweeps_only_for_running_members() {
        // Two copies of one system merge whole. A variant whose forcing
        // divisor differs only in the sign of a zero shares the `max`
        // term and nothing downstream of the divisor.
        let [eq0, eq1] = sample_system();
        let swap = |e: &Expr| match e {
            Expr::Num(v) if *v == 40.0 => Expr::Num(-0.0),
            other => other.clone(),
        };
        let variant = [map_leaves(&eq0, &swap), map_leaves(&eq1, &swap)];
        let base = CompiledSystem::compile(&sample_system(), Tier::Threaded);
        let zero = CompiledSystem::compile(&variant, Tier::Threaded);
        let rows: Vec<Vec<f64>> = (0..LANES + 5).map(|t| vec![t as f64, 1.0]).collect();
        let members = [&base, &base, &zero];
        let mut group = CompiledSystem::group_session(&members, &rows);
        let n = base.prefix_len();
        assert_eq!(group.prefix.needs[0], group.prefix.needs[1]);
        assert!(group.prefix.prog.len() < n + zero.prefix_len());

        let state = [1.0, 2.0];
        let (mut want, mut got) = ([0.0; 2], [0.0; 2]);
        for (m, sys) in members.iter().enumerate() {
            let mut solo = sys.session(&rows);
            solo.step(0, &state, &mut want);
            group.step(m, 0, &state, &mut got);
            assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "member {m}");
        }
        assert_eq!(swept_in(&group, 0), group.prefix.prog.len());
        // Only the first copy steps on: chunk 1 sweeps its instructions
        // alone, and the last chunk is a ragged one.
        group.step(0, LANES + 4, &state, &mut got);
        assert_eq!(swept_in(&group, 1), n);
        let mut solo = base.session(&rows);
        solo.step(LANES + 4, &state, &mut want);
        assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits));
    }

    fn map_leaves(e: &Expr, f: &impl Fn(&Expr) -> Expr) -> Expr {
        match e {
            Expr::Unary(op, a) => Expr::un(*op, map_leaves(a, f)),
            Expr::Binary(op, a, b) => Expr::bin(*op, map_leaves(a, f), map_leaves(b, f)),
            leaf => f(leaf),
        }
    }

    #[test]
    #[should_panic(expected = "a group mixes tiers")]
    fn group_refuses_mixed_tiers() {
        let eqs = sample_system();
        let a = CompiledSystem::compile(&eqs, Tier::Threaded);
        let b = CompiledSystem::compile(&eqs, Tier::Simd);
        let rows = vec![vec![1.0, 2.0]];
        let _ = CompiledSystem::group_session(&[&a, &b], &rows);
    }

    #[test]
    fn group_runs_keep_the_merged_register_file_in_u16() {
        let sys = CompiledSystem::compile(&sample_system(), Tier::Threaded);
        let cost = sys.prefix_len() + sys.prefix().consts().len();
        let members = vec![&sys; 2 * usize::from(u16::MAX) / cost + 1];
        let runs = CompiledSystem::group_runs(&members);
        assert!(runs.len() >= 3, "{runs:?}");
        assert_eq!(runs.first().map(|r| r.start), Some(0));
        assert_eq!(runs.last().map(|r| r.end), Some(members.len()));
        for pair in runs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(runs.iter().all(|r| r.len() * cost <= usize::from(u16::MAX)));
        let rows = vec![vec![1.0, 2.0]];
        let group = CompiledSystem::group_session(&members[runs[0].clone()], &rows);
        assert_eq!(group.prefix.prog.len(), sys.prefix_len());
    }

    #[test]
    fn multi_session_matches_solo_sessions_bitwise() {
        let eqs = sample_system();
        let n_rows = LANES + 9;
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|t| {
                vec![
                    (t as f64 * 0.53).sin() * 25.0,
                    (t as f64 * 0.19).cos() * 1.5,
                ]
            })
            .collect();
        let k = 5;
        let inits: Vec<[f64; 2]> = (0..k)
            .map(|l| [4.0 + l as f64 * 1.7, 0.3 + l as f64 * 0.41])
            .collect();
        for tier in all_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);

            // Reference: each trajectory through its own solo session.
            let mut want = vec![vec![[0.0f64; 2]; n_rows]; k];
            for l in 0..k {
                let mut session = sys.session(&rows);
                let mut state = inits[l];
                #[allow(clippy::needless_range_loop)]
                for t in 0..n_rows {
                    let mut d = [0.0, 0.0];
                    session.step(t, &state, &mut d);
                    want[l][t] = d;
                    state[0] = (state[0] + 0.1 * d[0]).clamp(0.0, 1e6);
                    state[1] = (state[1] + 0.1 * d[1]).clamp(0.0, 1e6);
                }
            }

            // Batched: all k trajectories in lock-step over one shared
            // table, lane-major states.
            let prefix = sys.sweep_prefix(&rows);
            let mut multi = sys.lane_session(LaneForcing::Shared {
                rows: &rows,
                prefix: &prefix,
                lanes: k,
            });
            let mut states: Vec<f64> = inits.iter().flatten().copied().collect();
            let mut out = vec![0.0; k * 2];
            #[allow(clippy::needless_range_loop)]
            for t in 0..n_rows {
                multi.step(t, &states, &mut out);
                for l in 0..k {
                    for e in 0..2 {
                        assert!(
                            feq(out[l * 2 + e], want[l][t][e]),
                            "lane {l} eq {e} diverged at t={t} for {tier:?}: {} vs {}",
                            out[l * 2 + e],
                            want[l][t][e],
                        );
                    }
                }
                for l in 0..k {
                    for e in 0..2 {
                        states[l * 2 + e] =
                            (states[l * 2 + e] + 0.1 * out[l * 2 + e]).clamp(0.0, 1e6);
                    }
                }
            }
        }
    }

    #[test]
    fn ensemble_session_matches_solo_sessions_bitwise() {
        let eqs = sample_system();
        let n_rows = LANES + 9;
        // Every lane gets its own forcing table (a perturbed variant).
        let k = 5;
        let tables: Vec<Vec<Vec<f64>>> = (0..k)
            .map(|l| {
                (0..n_rows)
                    .map(|t| {
                        vec![
                            (t as f64 * 0.53 + l as f64 * 0.21).sin() * 25.0,
                            (t as f64 * 0.19).cos() * (1.5 + l as f64 * 0.13),
                        ]
                    })
                    .collect()
            })
            .collect();
        let init = [6.0, 0.9];
        for tier in all_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);

            // Reference: each variant through its own solo session.
            let mut want = vec![vec![[0.0f64; 2]; n_rows]; k];
            for l in 0..k {
                let mut session = sys.session(&tables[l]);
                let mut state = init;
                #[allow(clippy::needless_range_loop)]
                for t in 0..n_rows {
                    let mut d = [0.0, 0.0];
                    session.step(t, &state, &mut d);
                    want[l][t] = d;
                    state[0] = (state[0] + 0.1 * d[0]).clamp(0.0, 1e6);
                    state[1] = (state[1] + 0.1 * d[1]).clamp(0.0, 1e6);
                }
            }

            // Batched: all k variants in lock-step, per-lane tables.
            let refs: Vec<&[Vec<f64>]> = tables.iter().map(|t| t.as_slice()).collect();
            let mut ens = sys.lane_session(LaneForcing::PerLane(&refs));
            assert_eq!(ens.lanes(), k);
            assert_eq!(ens.rows(), n_rows);
            let mut states: Vec<f64> = (0..k).flat_map(|_| init).collect();
            let mut out = vec![0.0; k * 2];
            #[allow(clippy::needless_range_loop)]
            for t in 0..n_rows {
                ens.step(t, &states, &mut out);
                for l in 0..k {
                    for e in 0..2 {
                        assert!(
                            feq(out[l * 2 + e], want[l][t][e]),
                            "lane {l} eq {e} diverged at t={t} for {tier:?}: {} vs {}",
                            out[l * 2 + e],
                            want[l][t][e],
                        );
                    }
                }
                for l in 0..k {
                    for e in 0..2 {
                        states[l * 2 + e] =
                            (states[l * 2 + e] + 0.1 * out[l * 2 + e]).clamp(0.0, 1e6);
                    }
                }
            }
        }
    }

    #[test]
    fn ensemble_session_degenerate_single_lane_matches_multi() {
        let eqs = sample_system();
        let rows: Vec<Vec<f64>> = (0..LANES * 2)
            .map(|t| vec![(t as f64 * 0.31).sin() * 20.0, 1.0])
            .collect();
        let sys = CompiledSystem::compile(&eqs, Tier::Threaded);
        // One lane in each layout: per-lane tables against one shared
        // table with its materialized prefix.
        let refs = [rows.as_slice()];
        let mut ens = sys.lane_session(LaneForcing::PerLane(&refs));
        let prefix = sys.sweep_prefix(&rows);
        let mut multi = sys.lane_session(LaneForcing::Shared {
            rows: &rows,
            prefix: &prefix,
            lanes: 1,
        });
        let state = [5.0, 1.1];
        let mut a = [0.0, 0.0];
        let mut b = [0.0, 0.0];
        for t in 0..rows.len() {
            ens.step(t, &state, &mut a);
            multi.step(t, &state, &mut b);
            assert!(feq(a[0], b[0]) && feq(a[1], b[1]), "diverged at t={t}");
        }
    }

    #[test]
    fn full_stripe_min_max_keep_the_sign_of_a_zero_tie() {
        // A full stripe (the AVX2 kernels where they run) and solo
        // sessions agree on the sign of a `min`/`max` tie between zeros.
        let m = |op, a, b| Expr::bin(op, a, b);
        let eqs = [
            m(BinOp::Min, Expr::State(0), Expr::Num(0.0)),
            m(
                BinOp::Max,
                Expr::Num(-0.0),
                m(BinOp::Min, Expr::State(1), Expr::State(0)),
            ),
        ];
        let rows = vec![vec![1.0, 2.0]];
        // Lane `l`'s two states take their signs from `l`'s low two bits.
        let zero = |bit: usize| if bit == 0 { 0.0 } else { -0.0 };
        let states: Vec<f64> = (0..LANES)
            .flat_map(|l| [zero(l & 1), zero(l & 2)])
            .collect();
        for tier in exact_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);
            let prefix = sys.sweep_prefix(&rows);
            let mut lanes = sys.lane_session(LaneForcing::Shared {
                rows: &rows,
                prefix: &prefix,
                lanes: LANES,
            });
            let mut out = vec![0.0; LANES * 2];
            lanes.step(0, &states, &mut out);
            for (l, got) in out.chunks(2).enumerate() {
                let mut want = [0.0; 2];
                sys.session(&rows)
                    .step(0, &states[l * 2..l * 2 + 2], &mut want);
                let bits = |v: &[f64]| [v[0].to_bits(), v[1].to_bits()];
                assert_eq!(bits(got), bits(&want), "lane {l} for {tier:?}");
            }
        }
    }

    #[test]
    fn lane_sessions_match_solo_sessions_at_padded_widths() {
        // Widths from the padding threshold to one short of a full stripe.
        // With the vector kernels live (an AVX2+FMA host) these sessions
        // run padded to LANES lanes; otherwise at their own width. Either
        // way every real lane must match its solo session bit for bit, in
        // both layouts.
        let eqs = sample_system();
        let n_rows = LANES + 9;
        let table = |l: usize| -> Vec<Vec<f64>> {
            (0..n_rows)
                .map(|t| {
                    vec![
                        (t as f64 * 0.53 + l as f64 * 0.21).sin() * 25.0,
                        (t as f64 * 0.19).cos() * (1.5 + l as f64 * 0.13),
                    ]
                })
                .collect()
        };
        for k in [PAD_MIN, PAD_MIN + 1, LANES - 1] {
            let tables: Vec<Vec<Vec<f64>>> = (0..k).map(table).collect();
            let refs: Vec<&[Vec<f64>]> = tables.iter().map(Vec::as_slice).collect();
            let inits: Vec<f64> = (0..k)
                .flat_map(|l| [4.0 + l as f64 * 1.7, 0.3 + l as f64 * 0.41])
                .collect();
            for tier in exact_tiers() {
                let sys = CompiledSystem::compile(&eqs, tier);
                let prefix = sys.sweep_prefix(&tables[0]);
                // Each layout with the tables its lanes read.
                let layouts = [
                    (
                        LaneForcing::Shared {
                            rows: &tables[0],
                            prefix: &prefix,
                            lanes: k,
                        },
                        vec![refs[0]; k],
                    ),
                    (LaneForcing::PerLane(&refs), refs.clone()),
                ];
                for (forcing, lane_rows) in layouts {
                    let mut lanes = sys.lane_session(forcing);
                    let mut solo: Vec<_> = lane_rows.iter().map(|r| sys.session(r)).collect();
                    let mut states = inits.clone();
                    let mut out = vec![0.0; k * 2];
                    for t in 0..n_rows {
                        lanes.step(t, &states, &mut out);
                        for (l, session) in solo.iter_mut().enumerate() {
                            let mut want = [0.0, 0.0];
                            session.step(t, &states[l * 2..l * 2 + 2], &mut want);
                            for e in 0..2 {
                                assert!(
                                    feq(out[l * 2 + e], want[e]),
                                    "width {k} lane {l} eq {e} diverged at t={t} for {tier:?}"
                                );
                            }
                        }
                        for (x, d) in states.iter_mut().zip(&out) {
                            *x = (*x + 0.1 * d).clamp(0.0, 1e6);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_lane_prefix_sweep_reuses_lane_zero_where_inputs_match() {
        // sample_system's prefix reads v0 and v1; column 2 is never read.
        let eqs = sample_system();
        let n_rows = LANES + 9;
        let mut base: Vec<Vec<f64>> = (0..n_rows)
            .map(|t| {
                let t = t as f64;
                vec![(t * 0.53).sin() * 25.0, (t * 0.19).cos() * 1.5, 7.0]
            })
            .collect();
        base[3][0] = 0.0;
        let with = |f: &dyn Fn(usize, &mut Vec<f64>)| -> Vec<Vec<f64>> {
            let mut table = base.clone();
            for (t, row) in table.iter_mut().enumerate() {
                f(t, row);
            }
            table
        };
        // Only the unread column differs: nothing to recompute.
        let unread = with(&|_, r| r[2] = -3.0);
        // v1 differs in the second chunk only.
        let late = with(&|t, r| {
            if t >= LANES {
                r[1] += 1.0
            }
        });
        // -0.0 against lane 0's +0.0 is a difference (and a visible one:
        // v0 / 40 keeps the sign).
        let signed = with(&|t, r| {
            if t == 3 {
                r[0] = -0.0
            }
        });
        for tier in all_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);
            let deps = sys.prefix.var_deps();
            let reading = |v: u8| deps.iter().filter(|&&d| d & col_bit(v) != 0).count();
            assert!(0 < reading(1) && reading(1) < deps.len());
            let lane0 = 2 * sys.prefix_len();
            for (other, recomputed) in [(&unread, 0), (&late, reading(1)), (&signed, reading(0))] {
                let (tables, ran) = sys.sweep_lane_prefixes(&[&base[..], &other[..]]);
                assert_eq!(ran - lane0, recomputed, "{tier:?}");
                assert_eq!(tables[0], sys.sweep_prefix(&base));
                assert_eq!(tables[1], sys.sweep_prefix(other));
            }
            let (tables, _) = sys.sweep_lane_prefixes(&[&base[..], &signed[..]]);
            assert_ne!(tables[0].row(3)[0].to_bits(), tables[1].row(3)[0].to_bits());
        }
    }

    #[test]
    fn params_are_frozen_until_recompile() {
        let mut eq = Expr::bin(BinOp::Mul, Expr::State(0), p(0, 0.5));
        let ctx = EvalContext {
            vars: &[],
            state: &[4.0],
        };
        let sys = CompiledSystem::compile(std::slice::from_ref(&eq), Tier::Threaded);
        let mut out = [0.0];
        sys.eval_step(&ctx, &mut sys.scratch(), &mut out);
        assert_eq!(out[0], 2.0);
        for s in eq.param_slots_mut() {
            s.value = 2.0;
        }
        sys.eval_step(&ctx, &mut sys.scratch(), &mut out);
        assert_eq!(out[0], 2.0, "compiled artifact must not see the mutation");
        let sys2 = CompiledSystem::compile(std::slice::from_ref(&eq), Tier::Threaded);
        sys2.eval_step(&ctx, &mut sys2.scratch(), &mut out);
        assert_eq!(out[0], 8.0);
    }

    #[test]
    fn compile_checked_rejects_out_of_range_indices() {
        let bad_var = Expr::bin(BinOp::Add, Expr::Var(3), Expr::State(0));
        let err =
            CompiledSystem::compile_checked(std::slice::from_ref(&bad_var), 2, 1, Tier::Threaded)
                .unwrap_err();
        assert!(matches!(
            err,
            CompileError::VarOutOfRange { index: 3, arity: 2 }
        ));
        let bad_state = Expr::State(1);
        let err =
            CompiledSystem::compile_checked(std::slice::from_ref(&bad_state), 2, 1, Tier::Threaded)
                .unwrap_err();
        assert!(matches!(
            err,
            CompileError::StateOutOfRange { index: 1, arity: 1 }
        ));
        assert!(CompiledSystem::compile_checked(&sample_system(), 2, 2, Tier::Threaded).is_ok());
    }

    #[test]
    fn compiled_systems_pass_self_check_with_no_dead_code() {
        let eqs = sample_system();
        for tier in all_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);
            sys.self_check().unwrap_or_else(|e| panic!("{tier:?}: {e}"));
            assert!(sys.core().dead_instructions().is_empty());
            assert!(sys.prefix().dead_instructions().is_empty());
        }
    }

    #[test]
    fn check_rejects_raw_corruption() {
        // Out-of-bounds read register.
        let oob = RegProgram::from_raw_unchecked(
            vec![RInstr::Un {
                op: UnOp::Neg,
                dst: 1,
                a: 9,
            }],
            vec![],
            0,
            2,
            vec![1],
            0,
            0,
        );
        assert!(oob.check().unwrap_err().contains("register 9"));
        // Write into the pinned constant region.
        let pinned = RegProgram::from_raw_unchecked(
            vec![RInstr::LoadVar { dst: 0, idx: 0 }],
            vec![1.0],
            0,
            2,
            vec![0],
            1,
            0,
        );
        assert!(pinned.check().unwrap_err().contains("pinned"));
    }

    #[test]
    fn dead_instruction_detection_and_elimination() {
        // r1 = vars[0] (dead: overwritten before any read), r1 = state[0].
        let mut prog = RegProgram::from_raw_unchecked(
            vec![
                RInstr::LoadVar { dst: 1, idx: 0 },
                RInstr::LoadState { dst: 1, idx: 0 },
            ],
            vec![0.5],
            0,
            2,
            vec![1],
            1,
            1,
        );
        assert_eq!(prog.dead_instructions(), vec![0]);
        assert_eq!(prog.eliminate_dead(), 1);
        assert_eq!(prog.len(), 1);
        assert!(prog.dead_instructions().is_empty());
    }

    #[test]
    fn self_check_catches_state_load_in_prefix() {
        let eqs = sample_system();
        let sys = CompiledSystem::compile(&eqs, Tier::Threaded);
        assert!(sys.n_pre() > 0);
        // Graft a LoadState into the (state-independent) prefix program.
        let mut code = sys.prefix().instructions().to_vec();
        let dst = code.last().expect("prefix has instructions").dst();
        code.push(RInstr::LoadState { dst, idx: 0 });
        let corrupt_prefix = RegProgram::from_raw_unchecked(
            code,
            sys.prefix().consts().to_vec(),
            0,
            sys.prefix().n_regs() as u16,
            sys.prefix().outputs().to_vec(),
            sys.prefix().needs_vars(),
            0,
        );
        let corrupt = CompiledSystem::from_raw_parts(
            corrupt_prefix,
            sys.core().clone(),
            sys.n_eqs(),
            sys.tier(),
        );
        let err = corrupt.self_check().unwrap_err();
        assert!(err.contains("state"), "{err}");
    }

    #[test]
    fn register_file_stays_compact() {
        let eqs = sample_system();
        let sys = CompiledSystem::compile(&eqs, Tier::Threaded);
        // Linear scan with a free list should need far fewer registers
        // than SSA temporaries; the sample system fits comfortably in 16.
        assert!(
            sys.core().n_regs() <= 16,
            "core file: {}",
            sys.core().n_regs()
        );
        assert!(sys.prefix().n_regs() <= 16);
    }

    #[test]
    fn sub_patterns_fuse_and_stay_exact() {
        // s0*s1 - s0  → MulSub.
        let eq = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Mul, Expr::State(0), Expr::State(1)),
            Expr::State(0),
        );
        let sys = CompiledSystem::compile(std::slice::from_ref(&eq), Tier::Threaded);
        let fused_shapes = sys
            .core()
            .instructions()
            .iter()
            .filter(|i| matches!(i, RInstr::MulSub { .. }))
            .count();
        assert!(fused_shapes >= 1, "no MulSub fused for {eq:?}");
        for state in [[2.0, 3.0], [0.0, 0.0], [-1.5, 1e9], [f64::NAN, 1.0]] {
            let ctx = EvalContext {
                vars: &[],
                state: &state,
            };
            let mut out = [0.0];
            sys.eval_step(&ctx, &mut sys.scratch(), &mut out);
            assert!(feq(out[0], eq.eval(&ctx)), "diverged at {state:?}");
        }
    }

    #[test]
    fn tier_names_round_trip_and_map_to_options() {
        // Both tiers compile the same bytecode; only the arithmetic behind
        // the thunks and lane kernels differs.
        let threaded = CompiledSystem::compile(&sample_system(), Tier::Threaded);
        for tier in Tier::ALL {
            let sys = CompiledSystem::compile(&sample_system(), tier);
            assert_eq!(sys.tier(), tier, "tier round-trip for {tier:?}");
            assert_eq!(sys.core(), threaded.core(), "{tier:?} core");
            assert_eq!(sys.prefix(), threaded.prefix(), "{tier:?} prefix");
        }
        assert_ne!(Tier::Threaded.name(), Tier::Simd.name());
    }

    #[test]
    #[should_panic(expected = "analysis-only")]
    fn raw_parts_systems_refuse_to_run() {
        let sys = CompiledSystem::compile(&sample_system(), Tier::Threaded);
        let raw = CompiledSystem::from_raw_parts(
            sys.prefix().clone(),
            sys.core().clone(),
            sys.n_eqs(),
            sys.tier(),
        );
        let ctx = EvalContext {
            vars: &[20.0, 1.4],
            state: &[8.0, 1.2],
        };
        raw.eval_step(&ctx, &mut raw.scratch(), &mut [0.0, 0.0]);
    }

    #[test]
    fn fidelity_policy_gates_relaxed_tiers() {
        assert_eq!(Tier::fastest(FidelityPolicy::BitExact), Tier::Threaded);
        let fast = Tier::fastest(FidelityPolicy::AllowRelaxed);
        assert!(FidelityPolicy::AllowRelaxed.allows(fast.fidelity()));
        assert!(FidelityPolicy::BitExact.allows(Fidelity::BitExact));
        assert!(!FidelityPolicy::BitExact.allows(Fidelity::RelaxedSimd));
        assert_eq!(Tier::Threaded.fidelity(), Fidelity::BitExact);
        let sys = CompiledSystem::compile(&sample_system(), Tier::Simd);
        assert_eq!(sys.relaxed(), crate::simd::active());
        assert_eq!(sys.fidelity(), Tier::Simd.fidelity());
    }

    /// With live SIMD kernels the simd tier is *relaxed*: transcendentals
    /// track the interpreter to ~1e-12 relative error instead of bitwise.
    #[test]
    fn relaxed_simd_tier_tracks_interpreter_within_tolerance() {
        if !crate::simd::active() {
            return; // no AVX2+FMA: the tier is bit-exact, covered above
        }
        // Transcendental-heavy equation: exp/log/pow in prefix and core.
        let eq = Expr::bin(
            BinOp::Sub,
            Expr::bin(
                BinOp::Mul,
                Expr::State(0),
                Expr::un(
                    UnOp::Exp,
                    Expr::bin(BinOp::Div, Expr::Var(0), Expr::Num(30.0)),
                ),
            ),
            Expr::bin(
                BinOp::Pow,
                Expr::un(
                    UnOp::Log,
                    Expr::bin(BinOp::Add, Expr::Var(1), Expr::Num(1.0)),
                ),
                Expr::Num(1.7),
            ),
        );
        let sys = CompiledSystem::compile(std::slice::from_ref(&eq), Tier::Simd);
        assert!(sys.relaxed());
        let rows: Vec<Vec<f64>> = (0..LANES + 5)
            .map(|t| vec![(t as f64 * 0.7).sin() * 25.0, t as f64 * 0.3 + 0.1])
            .collect();
        let mut session = sys.session(&rows);
        let mut state = [4.0];
        for (t, row) in rows.iter().enumerate() {
            let ctx = EvalContext {
                vars: row,
                state: &state,
            };
            let want = eq.eval(&ctx);
            let mut got = [0.0];
            session.step(t, &state, &mut got);
            let rel = (got[0] - want).abs() / want.abs().max(1e-300);
            assert!(rel < 1e-11, "t={t}: rel err {rel:e} ({} vs {want})", got[0]);
            state[0] = (state[0] + 0.05 * got[0]).clamp(0.1, 1e6);
        }
    }
}
