//! The river fitness problem: forward integration and incremental scoring.
//!
//! Fitness evaluation in dynamic-systems modelling "involves evaluating
//! revised differential equations for each time step, and comparing it with
//! observed values" (§III-B2). A *fitness case* is one day: the state
//! `(B_Phy, B_Zoo)` is advanced by one forward-Euler step using the day's
//! forcing row, and the predicted phytoplankton biomass is compared against
//! observed chlorophyll-a.
//!
//! The incremental entry point [`RiverProblem::evaluate_with`] reports the
//! running RMSE to a caller-supplied controller every few steps — that is
//! the hook the GP engine's evaluation short-circuiting (paper Alg. 1)
//! plugs into, and it is also how tree caching and runtime compilation stay
//! orthogonal to the scoring loop.
//!
//! Numeric policy: evolved systems can be violently unstable. States are
//! clamped to `[0, state_cap]` (biomass is non-negative; the cap keeps a
//! runaway model's error *huge but finite*, mirroring the paper's M ANUAL
//! row showing a 2.79e+9 training RMSE rather than a crash), and a NaN state
//! is snapped to the cap.

use gmr_expr::{CompiledSystem, EvalContext, Expr, Tier, LANES};
use gmr_hydro::data::{RiverDataset, Split};
use gmr_hydro::{mae, rmse, NUM_VARS};
use std::ops::Range;
use std::slice;

/// Integration options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Initial `(B_Phy, B_Zoo)` at the first day of the split.
    pub init: (f64, f64),
    /// Euler time step in days.
    pub dt: f64,
    /// Upper clamp on both states.
    pub state_cap: f64,
    /// How often (in fitness cases) the incremental controller is consulted.
    pub check_every: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            init: (8.0, 1.2),
            dt: 1.0,
            state_cap: 1e9,
            check_every: 32,
        }
    }
}

/// A fully materialised fitness problem: forcings and observations at the
/// target station over one split.
#[derive(Debug, Clone)]
pub struct RiverProblem {
    /// Daily forcing rows.
    pub forcings: Vec<[f64; NUM_VARS]>,
    /// Observed chlorophyll-a, aligned with `forcings`.
    pub observed: Vec<f64>,
    /// Integration options.
    pub opts: SimOptions,
}

/// Post-step state repair: `NaN` becomes the cap (a diverged candidate
/// saturates rather than poisoning downstream arithmetic), anything else
/// clamps to `[0, cap]`. Applied only through [`euler_step`], so every
/// trajectory in the workspace repairs its state by exactly this rule.
#[inline(always)]
fn sanitise_state(x: f64, cap: f64) -> f64 {
    if x.is_nan() {
        cap
    } else {
        x.clamp(0.0, cap)
    }
}

/// One forward-Euler day for one water body: advance `state`
/// (`[B_Phy, B_Zoo]`) by derivative `d` over `dt`, then sanitise. The
/// update [`euler`] applies to every lane; exported for loops that must
/// compute a lane's pre-step state between steps (the network simulator
/// merges upstream arrivals into each station's water body).
#[inline(always)]
pub fn euler_step(state: [f64; 2], d: [f64; 2], dt: f64, cap: f64) -> [f64; 2] {
    [
        sanitise_state(state[0] + dt * d[0], cap),
        sanitise_state(state[1] + dt * d[1], cap),
    ]
}

/// The one forward-Euler loop: `k = states.len()` trajectories of
/// `(B_Phy, B_Zoo)` integrated in lock-step over `days`, from and into
/// `states` — so a caller may integrate a long horizon in several calls.
///
/// Per day: `visit(lane, day, bphy, bzoo)` observes each lane's
/// *pre-step* state (recording a prediction, reducing a summary, scoring
/// against observations — returning `false` aborts); `rhs(day, states, d)`
/// fills the derivatives of all lanes at once, both slices lane-major
/// (`[2l]` is lane `l`'s B_Phy, `[2l + 1]` its B_Zoo); then every lane
/// advances by [`euler_step`]. Returns whether the loop ran to completion.
/// Both closures are generic, so a step makes no dynamic call and no
/// allocation.
pub fn euler<F, V>(
    states: &mut [[f64; 2]],
    days: Range<usize>,
    dt: f64,
    cap: f64,
    mut rhs: F,
    mut visit: V,
) -> bool
where
    F: FnMut(usize, &[f64], &mut [f64]),
    V: FnMut(usize, usize, f64, f64) -> bool,
{
    let mut d = vec![[0.0f64; 2]; states.len()];
    for day in days {
        for (lane, s) in states.iter().enumerate() {
            if !visit(lane, day, s[0], s[1]) {
                return false;
            }
        }
        rhs(day, states.as_flattened(), d.as_flattened_mut());
        for (s, ds) in states.iter_mut().zip(&d) {
            *s = euler_step(*s, *ds, dt, cap);
        }
    }
    true
}

/// Running RMSE of one trajectory against the observations, with the
/// short-circuit checkpoints of [`RiverProblem::evaluate_with`]: the one
/// scoring rule of the interpreter and the compiled group.
#[derive(Clone, Copy, Default)]
struct Score {
    sse: f64,
    /// The running RMSE the controller stopped at.
    aborted: Option<f64>,
}

impl Score {
    /// Score day `i`'s prediction; `false` when `ctl` stops the
    /// evaluation at a checkpoint. Checkpoints fire between cases: when
    /// day `i` is visited, `i` cases are integrated and scored, which is
    /// exactly the historical end-of-iteration check with `done == i`
    /// (and `done < n` holds for free because case `i` is still pending).
    fn visit(
        &mut self,
        p: &RiverProblem,
        i: usize,
        bphy: f64,
        mut ctl: impl FnMut(f64, usize) -> bool,
    ) -> bool {
        if i > 0 && i.is_multiple_of(p.opts.check_every) {
            let running = finite_or_inf((self.sse / i as f64).sqrt());
            if !ctl(running, i) {
                self.aborted = Some(running);
                return false;
            }
        }
        let err = bphy - p.observed[i];
        self.sse += err * err;
        true
    }

    /// `(fitness, fully_evaluated)`: the running RMSE an abort stopped
    /// at, or the RMSE over all `n` cases.
    fn finish(&self, n: usize) -> (f64, bool) {
        match self.aborted {
            Some(running) => (running, false),
            None => (finite_or_inf((self.sse / n.max(1) as f64).sqrt()), true),
        }
    }
}

fn finite_or_inf(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::INFINITY
    }
}

impl RiverProblem {
    /// Build the problem for a dataset split, seeding the initial biomass
    /// from the first observation.
    pub fn from_dataset(ds: &RiverDataset, split: Split) -> Self {
        let forcings = ds.forcings(split).to_vec();
        let observed = ds.observed(split).to_vec();
        let mut opts = SimOptions::default();
        if let Some(&first) = observed.first() {
            opts.init.0 = first.max(0.05);
        }
        RiverProblem {
            forcings,
            observed,
            opts,
        }
    }

    /// Number of fitness cases (days).
    pub fn num_cases(&self) -> usize {
        self.observed.len()
    }

    /// [`euler`] over this problem's days from `opts.init`, one lane.
    fn integrate<R, V>(&self, rhs: R, mut visit: V) -> bool
    where
        R: FnMut(usize, &[f64], &mut [f64]),
        V: FnMut(usize, f64) -> bool,
    {
        let o = &self.opts;
        euler(
            &mut [[o.init.0, o.init.1]],
            0..self.forcings.len(),
            o.dt,
            o.state_cap,
            rhs,
            |_, i, bphy, _| visit(i, bphy),
        )
    }

    /// Derivative closure backed by the tree-walking interpreter.
    fn interp_rhs<'a>(&'a self, eqs: [&'a Expr; 2]) -> impl FnMut(usize, &[f64], &mut [f64]) + 'a {
        move |i, state, d| {
            let ctx = EvalContext {
                vars: &self.forcings[i],
                state,
            };
            d[0] = eqs[0].eval(&ctx);
            d[1] = eqs[1].eval(&ctx);
        }
    }

    /// Derivative closure backed by a compiled system: one register-VM
    /// session over the forcing table, so the state-independent prefix is
    /// swept columnar and only the core runs sequentially.
    fn compiled_rhs<'a>(
        &'a self,
        sys: &'a CompiledSystem,
    ) -> impl FnMut(usize, &[f64], &mut [f64]) + 'a {
        assert_eq!(sys.n_eqs(), 2, "the river system has two equations");
        let mut session = sys.session(&self.forcings);
        move |i, state, d| session.step(i, state, d)
    }

    /// Full simulation with the tree-walking interpreter. Returns the
    /// predicted B_Phy series.
    pub fn simulate(&self, eqs: &[Expr; 2]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_cases());
        self.integrate(self.interp_rhs([&eqs[0], &eqs[1]]), |_, bphy| {
            out.push(bphy);
            true
        });
        out
    }

    /// Full simulation through the optimizing register VM; the inner loop
    /// is allocation-free after the session's one-time setup.
    pub fn simulate_compiled(&self, sys: &CompiledSystem) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_cases());
        self.integrate(self.compiled_rhs(sys), |_, bphy| {
            out.push(bphy);
            true
        });
        out
    }

    /// RMSE of a system over this problem (full evaluation, interpreter).
    pub fn rmse(&self, eqs: &[Expr; 2]) -> f64 {
        rmse(&self.simulate(eqs), &self.observed)
    }

    /// MAE of a system over this problem (full evaluation, interpreter).
    pub fn mae(&self, eqs: &[Expr; 2]) -> f64 {
        mae(&self.simulate(eqs), &self.observed)
    }

    /// Incremental evaluation with a short-circuit controller.
    ///
    /// Every `opts.check_every` cases, `ctl` receives the running RMSE and
    /// the number of cases integrated; returning `false` aborts evaluation
    /// and the running RMSE is returned as the (extrapolated) fitness. The
    /// second tuple element reports whether evaluation ran to completion.
    ///
    /// `compiled` selects the optimizing register VM (runtime compilation
    /// on) or the interpreter (off) — the knob for the Fig. 10 experiment.
    pub fn evaluate_with(
        &self,
        eqs: &[Expr; 2],
        compiled: bool,
        ctl: &mut dyn FnMut(f64, usize) -> bool,
    ) -> (f64, bool) {
        let sys = compiled.then(|| CompiledSystem::compile(&eqs[..], Tier::Threaded));
        self.evaluate_precompiled([&eqs[0], &eqs[1]], sys.as_ref(), ctl)
    }

    /// [`Self::evaluate_with`] taking an already-compiled system, so
    /// callers that memoise the compiled artifact per genotype (the GP
    /// engine's phenotype cache) pay the compile cost once instead of on
    /// every evaluation. A compiled system is scored as a one-member
    /// [`Self::evaluate_group`].
    pub fn evaluate_precompiled(
        &self,
        eqs: [&Expr; 2],
        compiled: Option<&CompiledSystem>,
        ctl: &mut dyn FnMut(f64, usize) -> bool,
    ) -> (f64, bool) {
        if let Some(sys) = compiled {
            return self.evaluate_group(&[sys], &mut |_, running, done| ctl(running, done))[0];
        }
        let mut score = Score::default();
        self.integrate(self.interp_rhs(eqs), |i, bphy| {
            score.visit(self, i, bphy, &mut *ctl)
        });
        score.finish(self.num_cases())
    }

    /// Score compiled systems of one tier together, member `m` under
    /// `ctl(m, running, done)` exactly as [`Self::evaluate_precompiled`]
    /// scores it alone. Their state-independent prefixes run as one merged
    /// program ([`CompiledSystem::group_session`]), so a value several
    /// members compute is swept once per [`LANES`]-day chunk. Chunk by
    /// chunk, every member still running resumes its own [`euler`] loop
    /// over the chunk's days; a member whose controller stops it retires
    /// and costs nothing more. Returns each member's
    /// `(fitness, fully_evaluated)`, bit-identical to scoring it alone.
    pub fn evaluate_group(
        &self,
        systems: &[&CompiledSystem],
        ctl: &mut dyn FnMut(usize, f64, usize) -> bool,
    ) -> Vec<(f64, bool)> {
        assert!(
            systems.iter().all(|s| s.n_eqs() == 2),
            "the river system has two equations"
        );
        let o = &self.opts;
        let n = self.num_cases();
        let mut scores = vec![Score::default(); systems.len()];
        for run in CompiledSystem::group_runs(systems) {
            let mut session = CompiledSystem::group_session(&systems[run.clone()], &self.forcings);
            let scores = &mut scores[run.clone()];
            let mut states = vec![[o.init.0, o.init.1]; run.len()];
            let mut live: Vec<usize> = (0..run.len()).collect();
            for first in (0..n).step_by(LANES) {
                live.retain(|&m| {
                    euler(
                        slice::from_mut(&mut states[m]),
                        first..n.min(first + LANES),
                        o.dt,
                        o.state_cap,
                        |i, state, d| session.step(m, i, state, d),
                        |_, i, bphy, _| {
                            scores[m].visit(self, i, bphy, |running, done| {
                                ctl(run.start + m, running, done)
                            })
                        },
                    )
                });
            }
        }
        scores.iter().map(|s| s.finish(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manual::manual_system;
    use gmr_hydro::{generate, SyntheticConfig};

    fn tiny_problem() -> RiverProblem {
        let ds = generate(&SyntheticConfig {
            start_year: 1996,
            end_year: 1997,
            train_end_year: 1996,
            ..Default::default()
        });
        RiverProblem::from_dataset(&ds, ds.train)
    }

    #[test]
    fn dimensions_follow_split() {
        let p = tiny_problem();
        assert_eq!(p.num_cases(), 366);
        assert_eq!(p.forcings.len(), p.observed.len());
        // Initial biomass seeded from the first observation.
        assert_eq!(p.opts.init.0, p.observed[0].max(0.05));
    }

    #[test]
    fn compiled_and_interpreted_agree() {
        let p = tiny_problem();
        let eqs = manual_system();
        let interp = p.simulate(&eqs);
        // The simd tier is bit-exact exactly when its vector kernels are
        // dormant; with them live its fidelity class is relaxed-simd and
        // the bench's tolerance validation covers it instead.
        for tier in Tier::ALL {
            if tier.fidelity() != gmr_expr::Fidelity::BitExact {
                continue;
            }
            let sys = CompiledSystem::compile(&eqs, tier);
            let compiled = p.simulate_compiled(&sys);
            assert_eq!(interp, compiled, "tier {tier:?} diverged");
        }
    }

    #[test]
    fn rmse_matches_manual_composition() {
        let p = tiny_problem();
        let eqs = manual_system();
        let pred = p.simulate(&eqs);
        assert_eq!(p.rmse(&eqs), rmse(&pred, &p.observed));
        assert!(p.rmse(&eqs).is_finite() || p.rmse(&eqs) == f64::INFINITY);
    }

    #[test]
    fn states_stay_in_bounds() {
        let p = tiny_problem();
        // A deliberately explosive system: dB/dt = B * B.
        let explosive = [
            Expr::bin(gmr_expr::BinOp::Mul, Expr::State(0), Expr::State(0)),
            Expr::Num(0.0),
        ];
        let pred = p.simulate(&explosive);
        for v in pred {
            assert!(v.is_finite());
            assert!((0.0..=p.opts.state_cap).contains(&v));
        }
    }

    #[test]
    fn incremental_full_run_matches_batch() {
        let p = tiny_problem();
        let eqs = manual_system();
        let (fit, full) = p.evaluate_with(&eqs, false, &mut |_, _| true);
        assert!(full);
        let batch = p.rmse(&eqs);
        if batch.is_finite() {
            assert!((fit - batch).abs() < 1e-9, "{fit} vs {batch}");
        } else {
            assert_eq!(fit, f64::INFINITY);
        }
    }

    #[test]
    fn controller_can_abort_early() {
        let p = tiny_problem();
        let eqs = manual_system();
        let mut calls = 0;
        let (_, full) = p.evaluate_with(&eqs, false, &mut |_, done| {
            calls += 1;
            done < 100
        });
        assert!(!full);
        assert!(calls >= 1);
    }

    #[test]
    fn compiled_incremental_matches_interpreted_incremental() {
        let p = tiny_problem();
        let eqs = manual_system();
        let (a, _) = p.evaluate_with(&eqs, false, &mut |_, _| true);
        let (b, _) = p.evaluate_with(&eqs, true, &mut |_, _| true);
        assert_eq!(a, b);
    }

    #[test]
    fn group_scores_each_member_as_the_interpreter_scores_it_alone() {
        // Duplicates and a variant, stopped by their controllers at
        // checkpoints off the 32-day chunk grid, or never.
        let mut p = tiny_problem();
        p.opts.check_every = 20;
        let [a, b] = manual_system();
        let half = Expr::bin(gmr_expr::BinOp::Mul, b.clone(), Expr::Num(0.5));
        let systems = [[a.clone(), b.clone()], [a.clone(), half], [a, b]];
        let compiled: Vec<CompiledSystem> = systems
            .iter()
            .map(|eqs| CompiledSystem::compile(eqs, Tier::Threaded))
            .collect();
        let stop_at = [usize::MAX, 60, 140];
        let refs: Vec<&CompiledSystem> = compiled.iter().collect();
        let got = p.evaluate_group(&refs, &mut |m, _, done| done < stop_at[m]);
        for (m, eqs) in systems.iter().enumerate() {
            let want =
                p.evaluate_precompiled([&eqs[0], &eqs[1]], None, &mut |_, done| done < stop_at[m]);
            assert_eq!(got[m].0.to_bits(), want.0.to_bits(), "member {m}");
            assert_eq!(got[m].1, want.1, "member {m}");
        }
        assert_eq!(got.iter().filter(|r| r.1).count(), 1);
    }

    #[test]
    fn perfect_oracle_scores_near_zero() {
        // A system that holds BPhy at its initial value, evaluated against
        // observations equal to that constant, must score 0.
        let mut p = tiny_problem();
        let c = p.opts.init.0;
        p.observed = vec![c; p.num_cases()];
        let frozen = [Expr::Num(0.0), Expr::Num(0.0)];
        assert_eq!(p.rmse(&frozen), 0.0);
    }
}
