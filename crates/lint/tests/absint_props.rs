//! Properties of the bytecode abstract interpreter (`gmr_lint::absint`).
//!
//! 1. **Soundness** — for random compiled river systems, every value the
//!    VM actually produces over random in-envelope forcing tables and
//!    states is contained in the analyzer's static output enclosure
//!    (finite values inside the interval, non-finite ones only when the ⊤
//!    flag is set), and the analyzer never raises a false `Error` on
//!    pipeline-compiled code.
//! 2. **Prefix-taint agreement** — on the Table V expert model and the
//!    three elite revisions the benchmarks pin down, the analyzer's
//!    state-dependence proof agrees with what the compiler hoisted: the
//!    hoisted prefix is provably state-independent (zero findings), and a
//!    state load grafted into it is refused.

use gmr_expr::{
    BinOp, CompiledSystem, EvalContext, Expr, ParamSlot, RInstr, RegProgram, Tier, UnOp,
};
use gmr_lint::interval::IntervalEnv;
use gmr_lint::{analyze_system, Severity};
use proptest::prelude::*;

/// Expressions over the river leaf vocabulary (same generator as the AST
/// property suite): all 10 Table IV variables, both states, every Table III
/// parameter kind with values inside the priors.
fn arb_river_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100.0_f64..100.0).prop_map(Expr::Num),
        (0u8..10).prop_map(Expr::Var),
        (0u8..2).prop_map(Expr::State),
        (0u16..17, 0.0_f64..1.0).prop_map(|(kind, t)| {
            let s = gmr_bio::params::spec(kind);
            Expr::Param(ParamSlot {
                kind,
                value: s.min + t * (s.max - s.min),
            })
        }),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Min),
                    Just(BinOp::Max),
                    Just(BinOp::Pow),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (
                prop_oneof![Just(UnOp::Neg), Just(UnOp::Log), Just(UnOp::Exp)],
                inner
            )
                .prop_map(|(op, a)| Expr::un(op, a)),
        ]
    })
}

/// Interpolation factors for in-envelope forcing rows and state vectors.
fn arb_drive() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    (
        prop::collection::vec(prop::collection::vec(0.0_f64..1.0, 10), 1..40),
        prop::collection::vec(prop::collection::vec(0.0_f64..1.0, 2), 1..4),
    )
}

fn lerp_rows(ivs: &[gmr_lint::Interval], factors: &[Vec<f64>]) -> Vec<Vec<f64>> {
    factors
        .iter()
        .map(|row| {
            ivs.iter()
                .zip(row)
                .map(|(iv, t)| iv.lo + t * (iv.hi - iv.lo))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn static_enclosure_contains_runtime_values(
        eqs in prop::collection::vec(arb_river_expr(), 1..3),
        (vf, sf) in arb_drive(),
    ) {
        let env = IntervalEnv::river();
        let rows = lerp_rows(&env.vars, &vf);
        let states = lerp_rows(&env.states, &sf);
        let sys = CompiledSystem::compile_checked(&eqs, 10, 2, Tier::Threaded)
            .expect("river-arity system compiles");
        let analysis = analyze_system(&sys, &env, "prop");
        // Pipeline output must never be refused.
        prop_assert_eq!(
            analysis.report.count(Severity::Error), 0,
            "false Error:\n{}",
            analysis.report.render_human()
        );
        prop_assert!(analysis.safety.proved());
        let mut scratch = sys.scratch();
        let mut out = vec![0.0; sys.n_eqs()];
        for vars in &rows {
            for state in &states {
                let ctx = EvalContext { vars, state };
                sys.eval_step(&ctx, &mut scratch, &mut out);
                for (k, &v) in out.iter().enumerate() {
                    let abs = &analysis.outputs[k];
                    prop_assert!(
                        abs.contains(v),
                        "eq {}: runtime value {} escapes static enclosure {} (nonfinite={})",
                        k, v, abs.iv, abs.nonfinite
                    );
                }
            }
        }
    }
}

/// The pinned systems of `bench_vm`: Table V plus the three elite shapes.
fn pinned_models() -> Vec<(&'static str, Vec<Expr>)> {
    use gmr_bio::manual;
    let names = gmr_bio::name_table();
    let parse_eq = |src: &str| -> Expr {
        gmr_expr::parse(src, &names, |kind| gmr_bio::params::spec(kind).mean)
            .unwrap_or_else(|e| panic!("pinned model failed to parse: {e}\n{src}"))
    };
    let dbphy = manual::dbphy_src();
    let dbzoo = manual::dbzoo_src();
    vec![
        ("table_v_manual", gmr_bio::manual_system().to_vec()),
        (
            "elite_added_flux",
            vec![
                parse_eq(&format!(
                    "({dbphy}) + R * (Vcd / (Vcd + 300)) * ({})",
                    manual::F_LIGHT
                )),
                parse_eq(&dbzoo),
            ],
        ),
        (
            "elite_temp_modulated",
            vec![
                parse_eq(&format!("({dbphy}) * ({})", manual::H_TEMP)),
                parse_eq(&dbzoo),
            ],
        ),
        (
            "elite_coupled_zoo",
            vec![
                parse_eq(&dbphy),
                parse_eq(&format!(
                    "({dbzoo}) + CUZ * ({}) * BZoo",
                    manual::G_NUTRIENT
                )),
            ],
        ),
    ]
}

#[test]
fn pinned_models_prefixes_prove_state_independent() {
    let env = IntervalEnv::river();
    for (name, eqs) in pinned_models() {
        let sys = CompiledSystem::compile_checked(&eqs, 10, 2, Tier::Threaded)
            .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        // The compiler found real state-independent work to hoist in every
        // pinned model — the taint proof must not be vacuous.
        assert!(sys.prefix_len() > 0, "{name}: nothing hoisted");
        let analysis = analyze_system(&sys, &env, name);
        assert!(
            analysis.report.diagnostics.is_empty(),
            "{name}:\n{}",
            analysis.report.render_human()
        );
        assert!(analysis.safety.proved(), "{name}: unproved obligation");
        // Agreement with the compiler: what absint derives as untainted is
        // exactly the hoisted program — graft one state load into it and
        // the same analysis must flip to a refusal.
        let mut code = sys.prefix().instructions().to_vec();
        let dst = code.last().expect("nonempty prefix").dst();
        code.push(RInstr::LoadState { dst, idx: 0 });
        let corrupt = CompiledSystem::from_raw_parts(
            RegProgram::from_raw_unchecked(
                code,
                sys.prefix().consts().to_vec(),
                0,
                sys.prefix().n_regs() as u16,
                sys.prefix().outputs().to_vec(),
                sys.prefix().needs_vars(),
                0,
            ),
            sys.core().clone(),
            sys.n_eqs(),
            sys.tier(),
        );
        let refused = analyze_system(&corrupt, &env, name);
        assert!(
            refused
                .report
                .diagnostics
                .iter()
                .any(|d| d.rule == "prefix-state-load" && d.severity == Severity::Error),
            "{name}: grafted state load not refused:\n{}",
            refused.report.render_human()
        );
    }
}

#[test]
fn pinned_models_static_intervals_contain_simulated_trajectory() {
    use gmr_hydro::{generate, SyntheticConfig};
    // Drive each pinned model over a real synthetic forcing table (the same
    // generator the benchmarks use) and check the static enclosure holds on
    // genuine trajectories, not just random points.
    let ds = generate(&SyntheticConfig {
        start_year: 1996,
        end_year: 1997,
        train_end_year: 1996,
        ..Default::default()
    });
    let problem = gmr_bio::RiverProblem::from_dataset(&ds, ds.train);
    let env = IntervalEnv::river();
    for (name, eqs) in pinned_models() {
        let sys = CompiledSystem::compile_checked(&eqs, 10, 2, Tier::Threaded)
            .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        let analysis = analyze_system(&sys, &env, name);
        let mut scratch = sys.scratch();
        let mut out = vec![0.0; sys.n_eqs()];
        let state = [30.0, 10.0];
        for row in &problem.forcings {
            let clamped: Vec<f64> = row
                .iter()
                .zip(&env.vars)
                .map(|(&v, iv)| v.clamp(iv.lo, iv.hi))
                .collect();
            let ctx = EvalContext {
                vars: &clamped,
                state: &state,
            };
            sys.eval_step(&ctx, &mut scratch, &mut out);
            for (k, &v) in out.iter().enumerate() {
                assert!(
                    analysis.outputs[k].contains(v),
                    "{name} eq {k}: {v} escapes {}",
                    analysis.outputs[k].iv
                );
            }
        }
    }
}
