//! Abstract interpretation over the register bytecode of
//! [`gmr_expr::CompiledSystem`] — the AST-level guarantees of this crate,
//! carried through the optimizing pipeline to the code that actually runs.
//!
//! The AST linters ([`crate::interval`], [`crate::units`]) analyze what the
//! grammar *wrote*; since the register-VM pipeline landed, what *executes*
//! is fused three-address code with unchecked register accesses and a
//! state-independent prefix hoisted out of the sequential loop. This module
//! closes that gap with four dataflow analyses over the compiled programs,
//! one forward pass each plus a backward liveness sweep:
//!
//! 1. **Interval + non-finite taint.** Every register carries an element of
//!    the lattice `{⊤} ∪ {finite [lo, hi]}`: either a closed finite
//!    enclosure of every value the register can hold (propagated through
//!    the same protected-operator transfer functions as the AST analysis,
//!    reusing [`Interval`] as the value domain), or ⊤ — "may be anything,
//!    including NaN/∞". Any operand at ⊤ forces the result to ⊤ (protected
//!    `min`/`max` *discard* NaN operands, so a NaN input can surface a
//!    value outside the pointwise image — only ⊤ is sound there), and an
//!    enclosure whose bound overflows to ±∞ or collapses to NaN widens to
//!    ⊤. An equation output at ⊤ under a finite input environment is a
//!    `nonfinite-range` warning.
//! 2. **State-dependence taint.** `LoadState` introduces taint; every
//!    consumer propagates it. The pipeline's contract is that the prefix
//!    program is state-*independent* (its values are computed once per
//!    candidate and shared across every step and trajectory), so any taint
//!    source inside a prefix — a `LoadState` instruction, or a declared
//!    state arity — is an Error-severity finding, as is a prefix window
//!    whose width disagrees with what the compiler hoisted.
//! 3. **Liveness.** A backward sweep over the register file finds
//!    instructions whose destination is never observed. The compiler runs
//!    the same analysis as a DCE pass ([`RegProgram::dead_instructions`]);
//!    this module re-derives it independently from the public instruction
//!    stream, so a surviving dead instruction — impossible for pipeline
//!    output, possible for a corrupted artifact — is reported.
//! 4. **Bounds proof.** The VM's unchecked register accesses — the
//!    threaded code's raw-pointer thunks and the five lane dispatchers
//!    (each forwarding identical stripe offsets to the scalar `k_*` kernels
//!    or the AVX2 `simd` kernels) — are each discharged by a
//!    machine-checked max-index argument: the analysis computes the
//!    maximum register index any instruction or output touches, per
//!    program, and proves it below the register-file bound the VM asserts
//!    (`n_regs` for threaded access, `n_regs · LANES` for lane stripes).
//!    The obligations are emitted as a [`SafetyReport`] (JSON schema
//!    `gmr-safety/v1`) that CI diffs against a committed baseline; an
//!    unproved obligation is an Error finding.
//!
//! **Soundness argument** (property-tested in `tests/absint_props.rs`):
//! every transfer function's concrete image is contained in its abstract
//! image — the interval operators mirror the protected evaluator and are
//! outward-widened after every step, and every imprecise corner (NaN
//! discarding in `min`/`max`, overflow, uninitialized reads) collapses to
//! ⊤, which contains everything. Register state is strong-updated (each
//! write replaces the cell exactly as the interpreter does), so by
//! induction over the straight-line program every reachable concrete
//! register state is enclosed by the abstract one.

use crate::diag::{Diagnostic, Location, Report, Severity};
use crate::interval::{Interval, IntervalEnv};
use gmr_expr::{BinOp, CompiledSystem, RInstr, RegProgram, UnOp, LANES};

/// One element of the value lattice: a finite enclosure, or ⊤.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsVal {
    /// Enclosure of every value the register can hold. Full-range when
    /// `nonfinite` is set.
    pub iv: Interval,
    /// ⊤: the register may hold NaN or ±∞ (or anything else — the
    /// enclosure is widened to full range whenever this is set).
    pub nonfinite: bool,
}

impl AbsVal {
    /// ⊤ — may be anything, including NaN/∞.
    pub fn top() -> AbsVal {
        AbsVal {
            iv: Interval::new(f64::NEG_INFINITY, f64::INFINITY),
            nonfinite: true,
        }
    }

    /// Normalize a computed enclosure: a NaN or non-finite bound (or a
    /// non-finite point) widens to ⊤, everything else stays precise.
    pub fn from_interval(iv: Interval) -> AbsVal {
        if iv.lo.is_finite() && iv.hi.is_finite() {
            AbsVal {
                iv,
                nonfinite: false,
            }
        } else {
            AbsVal::top()
        }
    }

    /// Does the enclosure contain `v`? NaN is contained only in ⊤.
    pub fn contains(&self, v: f64) -> bool {
        if v.is_nan() {
            self.nonfinite
        } else {
            self.iv.contains(v)
        }
    }
}

/// Unary transfer function: the abstract image of the protected operator.
fn un_transfer(op: UnOp, a: AbsVal) -> AbsVal {
    if a.nonfinite {
        return AbsVal::top();
    }
    AbsVal::from_interval(match op {
        UnOp::Neg => a.iv.neg(),
        UnOp::Log => a.iv.log(),
        UnOp::Exp => a.iv.exp(),
    })
}

/// Binary transfer function. Any ⊤ operand forces ⊤: protected `min`/`max`
/// *discard* a NaN operand (`f64::min(NaN, x) == x`), so the result can be
/// any value of the other side — the pointwise interval image would be
/// unsound there.
fn bin_transfer(op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
    if a.nonfinite || b.nonfinite {
        return AbsVal::top();
    }
    AbsVal::from_interval(match op {
        BinOp::Add => a.iv.add(b.iv),
        BinOp::Sub => a.iv.sub(b.iv),
        BinOp::Mul => a.iv.mul(b.iv),
        BinOp::Div => a.iv.div(b.iv),
        BinOp::Min => a.iv.min(b.iv),
        BinOp::Max => a.iv.max(b.iv),
        BinOp::Pow => a.iv.pow(b.iv),
    })
}

/// Transfer for the fused `a·b − c` (`RInstr::MulSub`). It executes as
/// two separately-rounded IEEE ops (never an FMA contraction), so the
/// abstract image is exactly the composition of the two interval ops.
fn mul_sub_transfer(a: AbsVal, b: AbsVal, c: AbsVal) -> AbsVal {
    if a.nonfinite || b.nonfinite || c.nonfinite {
        return AbsVal::top();
    }
    AbsVal::from_interval(a.iv.mul(b.iv).sub(c.iv))
}

/// The river environment when the arities match the river schema, a fully
/// unconstrained environment (every input at ⊤) otherwise — what the
/// serving registry uses to analyze a third-party artifact.
pub fn env_for_arity(n_vars: usize, n_states: usize) -> IntervalEnv {
    let river = IntervalEnv::river();
    if river.vars.len() == n_vars && river.states.len() == n_states {
        return river;
    }
    let full = Interval::new(f64::NEG_INFINITY, f64::INFINITY);
    IntervalEnv {
        vars: vec![full; n_vars],
        states: vec![full; n_states],
        params: Vec::new(),
    }
}

fn env_is_finite(env: &IntervalEnv) -> bool {
    env.vars
        .iter()
        .chain(env.states.iter())
        .all(|iv| iv.lo.is_finite() && iv.hi.is_finite())
}

/// One discharged (or failed) proof obligation for an `unsafe` site.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyObligation {
    /// The `unsafe` site in `gmr-expr` this obligation discharges.
    pub site: &'static str,
    /// Which program of the system (`"core"` / `"prefix"`).
    pub program: &'static str,
    /// The max-index argument, in words.
    pub claim: &'static str,
    /// Number of accesses the obligation covers (0 = vacuously proved).
    pub accesses: usize,
    /// Largest index any covered access can touch.
    pub max_index: usize,
    /// Exclusive bound the interpreter's buffer length guarantees.
    pub bound: usize,
    /// `accesses == 0 || max_index < bound`.
    pub proved: bool,
}

/// The machine-checked bounds argument for every unchecked access in the
/// VM, per compiled system. Rendered as `gmr-safety/v1` JSON and diffed
/// against a committed baseline by CI.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyReport {
    /// Model name the system was compiled from.
    pub model: String,
    /// Optimization tier ([`gmr_expr::Tier::name`]).
    pub tier: &'static str,
    /// One entry per (site, program) pair.
    pub obligations: Vec<SafetyObligation>,
}

impl SafetyReport {
    /// Every obligation discharged?
    pub fn proved(&self) -> bool {
        self.obligations.iter().all(|o| o.proved)
    }

    /// Render as `gmr-safety/v1` JSON (stable key and obligation order, so
    /// the output is byte-diffable against a committed baseline).
    pub fn render_json(&self) -> String {
        use gmr_json::push_escaped;
        let mut o = String::from("{\n  \"schema\": \"gmr-safety/v1\",\n  \"model\": ");
        push_escaped(&mut o, &self.model);
        o.push_str(",\n  \"tier\": ");
        push_escaped(&mut o, self.tier);
        o.push_str(&format!(",\n  \"proved\": {},", self.proved()));
        o.push_str("\n  \"obligations\": [");
        for (i, ob) in self.obligations.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\"site\": ");
            push_escaped(&mut o, ob.site);
            o.push_str(", \"program\": ");
            push_escaped(&mut o, ob.program);
            o.push_str(&format!(
                ", \"accesses\": {}, \"max_index\": {}, \"bound\": {}, \"proved\": {}, ",
                ob.accesses, ob.max_index, ob.bound, ob.proved
            ));
            o.push_str("\"claim\": ");
            push_escaped(&mut o, ob.claim);
            o.push('}');
        }
        o.push_str("\n  ]\n}\n");
        o
    }
}

/// Everything the analyzer derives about one compiled system.
#[derive(Debug, Clone)]
pub struct SystemAnalysis {
    /// All findings across the four analyses.
    pub report: Report,
    /// Abstract value of each equation output (one per `n_eqs`).
    pub outputs: Vec<AbsVal>,
    /// The bounds proof for the VM's `unsafe` sites.
    pub safety: SafetyReport,
}

/// Per-register analysis cell.
#[derive(Clone, Copy)]
struct Cell {
    val: AbsVal,
    state_tainted: bool,
    written: bool,
}

/// Which accesses feed a given lane-kernel `unsafe` site.
#[derive(Clone, Copy, PartialEq)]
enum Site {
    Threaded,
    Fused3Lanes,
    KUn,
    KBin,
    KBinCl,
    KBinCr,
}

const N_SITES: usize = 6;

fn sites_of(ins: &RInstr) -> &'static [Site] {
    // Every instruction is compiled into a threaded-code thunk
    // (raw-pointer access with the instruction's register indices). The
    // two lane interpreters — `run_lanes` (per-lane rows: the prefix
    // sweep and the per-lane lock-step core) and `run_lanes_one_row` (one
    // shared row) — additionally route it to one of the unchecked
    // dispatchers `l_un`/`l_bin`/`l_bin_cl`/`l_bin_cr`/`l_fused3`, each
    // of which forwards the same stripe offsets to either the scalar
    // `k_*` kernels or the `simd` AVX2 kernels. VarBin takes
    // `l_bin_cl`/`l_bin_cr` in `run_lanes_one_row` (the row operand is a
    // broadcast constant) and `l_bin_vl`/`l_bin_vr` in `run_lanes` (the
    // operand is a gathered stack stripe), whose AVX2 div/pow kernels read
    // the register stripe unchecked. Its register operand sits where
    // ConstBin's does, so the `KBinCl`/`KBinCr` bound covers both.
    match ins {
        RInstr::LoadVar { .. } | RInstr::LoadState { .. } => &[Site::Threaded],
        RInstr::Un { .. } => &[Site::Threaded, Site::KUn],
        RInstr::Bin { .. } => &[Site::Threaded, Site::KBin],
        RInstr::VarBinL { .. } | RInstr::ConstBinL { .. } => &[Site::Threaded, Site::KBinCl],
        RInstr::VarBinR { .. } | RInstr::ConstBinR { .. } => &[Site::Threaded, Site::KBinCr],
        RInstr::MulSub { .. } => &[Site::Threaded, Site::Fused3Lanes],
    }
}

/// Max register index (and access count) per site, for one program.
struct SiteBounds {
    max: [Option<u16>; N_SITES],
}

impl SiteBounds {
    fn new() -> SiteBounds {
        SiteBounds {
            max: [None; N_SITES],
        }
    }

    fn note(&mut self, site: Site, r: u16) {
        let slot = &mut self.max[site as usize];
        *slot = Some(slot.map_or(r, |m: u16| m.max(r)));
    }

    fn get(&self, site: Site) -> Option<u16> {
        self.max[site as usize]
    }
}

/// Backward liveness over the register file, independent of the compiler's
/// own sweep: `true` at index `i` means instruction `i`'s destination is
/// never observed.
fn dead_mask(prog: &RegProgram) -> Vec<bool> {
    let code = prog.instructions();
    let mut live = vec![false; prog.n_regs()];
    for &o in prog.outputs() {
        if let Some(slot) = live.get_mut(o as usize) {
            *slot = true;
        }
    }
    let mut dead = vec![false; code.len()];
    for (i, ins) in code.iter().enumerate().rev() {
        let dst = ins.dst() as usize;
        if dst < live.len() && live[dst] {
            live[dst] = false;
            ins.reads(|r| {
                if let Some(slot) = live.get_mut(r as usize) {
                    *slot = true;
                }
            });
        } else {
            dead[i] = true;
        }
    }
    dead
}

struct ProgCtx<'a> {
    prog: &'a RegProgram,
    name: &'static str,
    env: &'a IntervalEnv,
    report: &'a mut Report,
    cells: Vec<Cell>,
    bounds: SiteBounds,
}

impl ProgCtx<'_> {
    fn diag(&mut self, sev: Severity, rule: &'static str, index: Option<usize>, msg: String) {
        self.report.push(Diagnostic::new(
            sev,
            rule,
            Location::Instr {
                program: self.name,
                index,
            },
            msg,
        ));
    }

    /// Abstract read of register `r` at instruction `i`. Out-of-bounds and
    /// never-written reads are Error findings and evaluate to ⊤.
    fn read(&mut self, i: usize, r: u16) -> (AbsVal, bool) {
        let n = self.prog.n_regs();
        if r as usize >= n {
            self.diag(
                Severity::Error,
                "reg-out-of-bounds",
                Some(i),
                format!("reads register {r}, but the file holds {n}"),
            );
            return (AbsVal::top(), false);
        }
        let cell = self.cells[r as usize];
        if !cell.written {
            self.diag(
                Severity::Error,
                "uninit-read",
                Some(i),
                format!(
                    "reads register {r} before any write: the value is stale \
                     scratch data from a previous evaluation"
                ),
            );
            return (AbsVal::top(), false);
        }
        (cell.val, cell.state_tainted)
    }

    /// Abstract write: strong update of the destination cell, with bounds
    /// and pinned-region findings.
    fn write(&mut self, i: usize, dst: u16, val: AbsVal, tainted: bool) {
        let n = self.prog.n_regs();
        let base = self.prog.consts().len() + self.prog.n_pre();
        if dst as usize >= n {
            self.diag(
                Severity::Error,
                "reg-out-of-bounds",
                Some(i),
                format!("writes register {dst}, but the file holds {n}"),
            );
            return;
        }
        if (dst as usize) < base {
            self.diag(
                Severity::Error,
                "pinned-write",
                Some(i),
                format!(
                    "writes pinned register {dst} (constants and the prefix \
                     window end at {base}); the clobbered value poisons every \
                     later step sharing the scratch buffer"
                ),
            );
            // Analysis continues with the clobbered value — that is what
            // the interpreter would compute.
        }
        self.cells[dst as usize] = Cell {
            val,
            state_tainted: tainted,
            written: true,
        };
    }

    fn var_interval(&mut self, i: usize, idx: u8) -> AbsVal {
        match self.env.vars.get(idx as usize) {
            Some(&iv) => AbsVal::from_interval(iv),
            None => {
                self.diag(
                    Severity::Error,
                    "var-out-of-bounds",
                    Some(i),
                    format!(
                        "reads forcing variable {idx}, but the schema declares {}",
                        self.env.vars.len()
                    ),
                );
                AbsVal::top()
            }
        }
    }

    fn state_interval(&mut self, i: usize, idx: u8) -> AbsVal {
        match self.env.states.get(idx as usize) {
            Some(&iv) => AbsVal::from_interval(iv),
            None => {
                self.diag(
                    Severity::Error,
                    "state-out-of-bounds",
                    Some(i),
                    format!(
                        "reads state variable {idx}, but the schema declares {}",
                        self.env.states.len()
                    ),
                );
                AbsVal::top()
            }
        }
    }
}

/// Analyze one program. `window` carries the prefix outputs' abstract
/// values into a core program's pinned window; `is_prefix` arms the
/// state-independence proof. Returns the abstract value of each output.
fn analyze_program(
    prog: &RegProgram,
    name: &'static str,
    env: &IntervalEnv,
    window: &[AbsVal],
    is_prefix: bool,
    report: &mut Report,
) -> (Vec<AbsVal>, SiteBounds) {
    let nc = prog.consts().len();
    let mut cells = vec![
        Cell {
            val: AbsVal::top(),
            state_tainted: false,
            written: false,
        };
        prog.n_regs()
    ];
    for (k, &c) in prog.consts().iter().enumerate() {
        cells[k] = Cell {
            val: AbsVal::from_interval(Interval::point(c)),
            state_tainted: false,
            written: true,
        };
    }
    for (k, &v) in window.iter().enumerate().take(prog.n_pre()) {
        // Prefix values are state-independent by the prefix's own proof.
        if nc + k < cells.len() {
            cells[nc + k] = Cell {
                val: v,
                state_tainted: false,
                written: true,
            };
        }
    }
    let mut ctx = ProgCtx {
        prog,
        name,
        env,
        report,
        cells,
        bounds: SiteBounds::new(),
    };

    if is_prefix && prog.needs_states() > 0 {
        ctx.diag(
            Severity::Error,
            "prefix-state-load",
            None,
            format!(
                "prefix program declares a state arity of {}; the columnar \
                 sweep runs once per candidate with no state vector at all",
                prog.needs_states()
            ),
        );
    }

    for (i, ins) in prog.instructions().iter().enumerate() {
        for &site in sites_of(ins) {
            ctx.bounds.note(site, ins.dst());
            ins.reads(|r| ctx.bounds.note(site, r));
        }
        if is_prefix && ins.state_index().is_some() {
            ctx.diag(
                Severity::Error,
                "prefix-state-load",
                Some(i),
                "state load inside the state-independent prefix: the hoisted \
                 value would be frozen at whatever state the sweep saw first"
                    .to_string(),
            );
        }
        let (val, tainted) = match *ins {
            RInstr::LoadVar { idx, .. } => (ctx.var_interval(i, idx), false),
            RInstr::LoadState { idx, .. } => (ctx.state_interval(i, idx), true),
            RInstr::Un { op, a, .. } => {
                let (av, at) = ctx.read(i, a);
                (un_transfer(op, av), at)
            }
            RInstr::Bin { op, a, b, .. } => {
                let (av, at) = ctx.read(i, a);
                let (bv, bt) = ctx.read(i, b);
                (bin_transfer(op, av, bv), at || bt)
            }
            RInstr::VarBinL { op, idx, b, .. } => {
                let av = ctx.var_interval(i, idx);
                let (bv, bt) = ctx.read(i, b);
                (bin_transfer(op, av, bv), bt)
            }
            RInstr::VarBinR { op, a, idx, .. } => {
                let (av, at) = ctx.read(i, a);
                let bv = ctx.var_interval(i, idx);
                (bin_transfer(op, av, bv), at)
            }
            RInstr::ConstBinL { op, c, b, .. } => {
                let (bv, bt) = ctx.read(i, b);
                (
                    bin_transfer(op, AbsVal::from_interval(Interval::point(c)), bv),
                    bt,
                )
            }
            RInstr::ConstBinR { op, a, c, .. } => {
                let (av, at) = ctx.read(i, a);
                (
                    bin_transfer(op, av, AbsVal::from_interval(Interval::point(c))),
                    at,
                )
            }
            RInstr::MulSub { a, b, c, .. } => {
                let (av, at) = ctx.read(i, a);
                let (bv, bt) = ctx.read(i, b);
                let (cv, ct) = ctx.read(i, c);
                (mul_sub_transfer(av, bv, cv), at || bt || ct)
            }
        };
        ctx.write(i, ins.dst(), val, tainted);
    }

    // Outputs: bounds, initialization, and (for a prefix) state purity.
    let mut outs = Vec::with_capacity(prog.outputs().len());
    for (k, &o) in prog.outputs().iter().enumerate() {
        ctx.bounds.note(Site::Threaded, o);
        if o as usize >= prog.n_regs() {
            ctx.diag(
                Severity::Error,
                "reg-out-of-bounds",
                None,
                format!(
                    "output {k} reads register {o}, but the file holds {}",
                    prog.n_regs()
                ),
            );
            outs.push(AbsVal::top());
            continue;
        }
        let cell = ctx.cells[o as usize];
        if !cell.written {
            ctx.diag(
                Severity::Error,
                "uninit-read",
                None,
                format!("output {k} reads register {o}, which no instruction writes"),
            );
        }
        if is_prefix && cell.state_tainted {
            ctx.diag(
                Severity::Error,
                "prefix-state-load",
                None,
                format!("prefix output {k} is state-tainted"),
            );
        }
        outs.push(cell.val);
    }

    // Independent liveness: the compiler's DCE must have left nothing.
    for (i, dead) in dead_mask(prog).iter().enumerate() {
        if *dead {
            ctx.diag(
                Severity::Warn,
                "dead-instruction",
                Some(i),
                "destination is overwritten or discarded before any read; \
                 the compiler's DCE pass should have removed this"
                    .to_string(),
            );
        }
    }

    let bounds = ctx.bounds;
    (outs, bounds)
}

/// Obligation table for one program's site bounds.
fn obligations_for(
    name: &'static str,
    bounds: &SiteBounds,
    n_regs: usize,
    out: &mut Vec<SafetyObligation>,
) {
    let kernel_sites: [(Site, &'static str); 5] = [
        (Site::KUn, "vm.rs l_un (k_un / simd kern1)"),
        (Site::KBin, "vm.rs l_bin (k_bin / simd kern2)"),
        (Site::KBinCl, "vm.rs l_bin_cl (k_bin_cl / simd kern2)"),
        (Site::KBinCr, "vm.rs l_bin_cr (k_bin_cr / simd kern2)"),
        (Site::Fused3Lanes, "vm.rs l_fused3 (scalar / simd kern3)"),
    ];
    let accesses = bounds.get(Site::Threaded).map_or(0, |_| 1);
    let max_index = bounds.get(Site::Threaded).unwrap_or(0) as usize;
    out.push(SafetyObligation {
        site: "threaded.rs ThreadedProgram::run",
        program: name,
        claim: "every thunk argument index is < n_regs and run() asserts the \
                register file length, so the raw-pointer thunk access is in \
                bounds",
        accesses,
        max_index,
        bound: n_regs,
        proved: accesses == 0 || max_index < n_regs,
    });
    for (site, site_name) in kernel_sites {
        let accesses = bounds.get(site).map_or(0, |_| 1);
        let max_index = bounds
            .get(site)
            .map_or(0, |m| m as usize * LANES + (LANES - 1));
        let bound = n_regs * LANES;
        out.push(SafetyObligation {
            site: site_name,
            program: name,
            claim: "max dispatcher stripe offset + (LANES-1) is < n_regs*LANES, \
                    so the shared lane kernels' (scalar and AVX2) unchecked \
                    access is in bounds",
            accesses,
            max_index,
            bound,
            proved: accesses == 0 || max_index < bound,
        });
    }
}

/// Run all four analyses over a compiled system. `env` supplies the input
/// enclosures ([`IntervalEnv::river`] for river-schema systems,
/// [`env_for_arity`] for arbitrary artifacts); `model` labels the
/// [`SafetyReport`].
pub fn analyze_system(sys: &CompiledSystem, env: &IntervalEnv, model: &str) -> SystemAnalysis {
    let mut report = Report::new();

    // Cross-program contract: the prefix's slot count is exactly the
    // window width the core was allocated against.
    if sys.prefix().outputs().len() != sys.core().n_pre() {
        report.push(Diagnostic::new(
            Severity::Error,
            "prefix-window-mismatch",
            Location::Instr {
                program: "prefix",
                index: None,
            },
            format!(
                "prefix produces {} value(s) but the core's pinned window is {} wide; \
                 the core would read unfilled scratch",
                sys.prefix().outputs().len(),
                sys.core().n_pre()
            ),
        ));
    }
    if sys.prefix().n_pre() != 0 {
        report.push(Diagnostic::new(
            Severity::Error,
            "prefix-window-mismatch",
            Location::Instr {
                program: "prefix",
                index: None,
            },
            "prefix program declares a pinned prefix window of its own".to_string(),
        ));
    }
    if sys.core().outputs().len() != sys.n_eqs() {
        report.push(Diagnostic::new(
            Severity::Error,
            "output-arity",
            Location::Instr {
                program: "core",
                index: None,
            },
            format!(
                "core produces {} output(s) for {} equation(s)",
                sys.core().outputs().len(),
                sys.n_eqs()
            ),
        ));
    }

    let (pre_out, pre_bounds) =
        analyze_program(sys.prefix(), "prefix", env, &[], true, &mut report);
    let (outputs, core_bounds) =
        analyze_program(sys.core(), "core", env, &pre_out, false, &mut report);

    if env_is_finite(env) {
        for (k, v) in outputs.iter().enumerate() {
            if v.nonfinite {
                report.push(Diagnostic::new(
                    Severity::Warn,
                    "nonfinite-range",
                    Location::Instr {
                        program: "core",
                        index: None,
                    },
                    format!(
                        "equation {k} may evaluate to NaN/∞ even though every \
                         input range is finite"
                    ),
                ));
            }
        }
    }

    let mut obligations = Vec::with_capacity(2 * N_SITES);
    obligations_for(
        "prefix",
        &pre_bounds,
        sys.prefix().n_regs(),
        &mut obligations,
    );
    obligations_for("core", &core_bounds, sys.core().n_regs(), &mut obligations);
    for ob in &obligations {
        if !ob.proved {
            report.push(Diagnostic::new(
                Severity::Error,
                "unsafe-bound-unproved",
                Location::Instr {
                    program: ob.program,
                    index: None,
                },
                format!(
                    "bounds proof for {} failed: max index {} is not < {}",
                    ob.site, ob.max_index, ob.bound
                ),
            ));
        }
    }

    let tier = sys.tier().name();
    SystemAnalysis {
        report,
        outputs,
        safety: SafetyReport {
            model: model.to_string(),
            tier,
            obligations,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_expr::{Expr, Tier};

    fn compile_manual(tier: Tier) -> CompiledSystem {
        let eqs: Vec<Expr> = gmr_bio::manual_system().to_vec();
        CompiledSystem::compile_checked(&eqs, 10, 2, tier).expect("manual system compiles")
    }

    #[test]
    fn manual_system_is_clean_at_every_tier() {
        let env = IntervalEnv::river();
        for tier in Tier::ALL {
            let sys = compile_manual(tier);
            let analysis = analyze_system(&sys, &env, "table5-manual");
            assert!(
                analysis.report.diagnostics.is_empty(),
                "{tier:?}:\n{}",
                analysis.report.render_human()
            );
            assert!(analysis.safety.proved());
            assert_eq!(analysis.outputs.len(), 2);
            for (k, v) in analysis.outputs.iter().enumerate() {
                assert!(!v.nonfinite, "eq{k} nonfinite: {:?}", v.iv);
            }
        }
    }

    #[test]
    fn safety_report_json_parses_and_is_stable() {
        let sys = compile_manual(Tier::Threaded);
        let analysis = analyze_system(&sys, &IntervalEnv::river(), "table5-manual");
        let json = analysis.safety.render_json();
        let v = gmr_json::parse(&json).expect("safety JSON parses strictly");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("gmr-safety/v1")
        );
        assert_eq!(v.get("proved"), Some(&gmr_json::Value::Bool(true)));
        assert_eq!(
            v.get("obligations")
                .and_then(|o| o.as_arr())
                .map(|a| a.len()),
            Some(12)
        );
        // Deterministic: a second analysis renders byte-identically.
        let again = analyze_system(&sys, &IntervalEnv::river(), "table5-manual");
        assert_eq!(json, again.safety.render_json());
    }

    #[test]
    fn corrupted_prefix_state_load_is_an_error() {
        use gmr_expr::{RInstr, RegProgram};
        let sys = compile_manual(Tier::Threaded);
        assert!(sys.n_pre() > 0, "manual system hoists a prefix");
        let mut code = sys.prefix().instructions().to_vec();
        let dst = code.last().expect("prefix nonempty").dst();
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
        let analysis = analyze_system(&corrupt, &IntervalEnv::river(), "corrupt");
        assert!(!analysis.report.is_clean());
        assert!(analysis
            .report
            .diagnostics
            .iter()
            .any(|d| d.rule == "prefix-state-load" && d.severity == Severity::Error));
    }

    #[test]
    fn oob_register_fails_the_bounds_proof() {
        use gmr_expr::{RInstr, RegProgram};
        let sys = compile_manual(Tier::Threaded);
        let mut code = sys.core().instructions().to_vec();
        // Point the first instruction's destination far outside the file.
        let oob = sys.core().n_regs() as u16 + 100;
        if let Some(first) = code.first_mut() {
            *first = RInstr::LoadVar { dst: oob, idx: 0 };
        }
        let corrupt_core = RegProgram::from_raw_unchecked(
            code,
            sys.core().consts().to_vec(),
            sys.core().n_pre() as u16,
            sys.core().n_regs() as u16,
            sys.core().outputs().to_vec(),
            sys.core().needs_vars(),
            sys.core().needs_states(),
        );
        let corrupt = CompiledSystem::from_raw_parts(
            sys.prefix().clone(),
            corrupt_core,
            sys.n_eqs(),
            sys.tier(),
        );
        let analysis = analyze_system(&corrupt, &IntervalEnv::river(), "corrupt");
        assert!(!analysis.report.is_clean());
        assert!(!analysis.safety.proved());
        assert!(analysis
            .report
            .diagnostics
            .iter()
            .any(|d| d.rule == "reg-out-of-bounds"));
        assert!(analysis
            .report
            .diagnostics
            .iter()
            .any(|d| d.rule == "unsafe-bound-unproved"));
    }

    #[test]
    fn unconstrained_env_analyzes_without_false_errors() {
        // A non-river arity: 3 vars, 1 state.
        let eq = Expr::bin(
            gmr_expr::BinOp::Mul,
            Expr::Var(2),
            Expr::bin(gmr_expr::BinOp::Add, Expr::State(0), Expr::Num(1.0)),
        );
        let sys = CompiledSystem::compile_checked(&[eq], 3, 1, Tier::Threaded).expect("compiles");
        let env = env_for_arity(3, 1);
        let analysis = analyze_system(&sys, &env, "tiny");
        assert!(
            analysis.report.is_clean(),
            "{}",
            analysis.report.render_human()
        );
        // Inputs at ⊤ mean the output is ⊤ — but that is not a warning
        // (the env is not finite, so nothing claims finiteness).
        assert_eq!(analysis.report.diagnostics.len(), 0);
    }
}
