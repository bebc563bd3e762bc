//! Property-based tests for the expression substrate.
//!
//! The two load-bearing invariants of the whole GMR system live here:
//!
//! 1. `simplify` never changes the value of a tree on any input (otherwise
//!    the fitness cache would silently return fitnesses of *different*
//!    models);
//! 2. the bit-exact register VM agrees with the interpreter bit-for-bit
//!    (otherwise the runtime-compilation speedup would change search
//!    trajectories).

use gmr_expr::ast::{BinOp, Expr, ParamSlot, UnOp};
use gmr_expr::{simplify, CompiledSystem, EvalContext, Fidelity, LaneForcing, NameTable, Tier};
use proptest::prelude::*;

/// Strategy for arbitrary expressions over 4 vars, 2 states, 3 param kinds.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1e3_f64..1e3).prop_map(Expr::Num),
        (0u8..4).prop_map(Expr::Var),
        (0u8..2).prop_map(Expr::State),
        ((0u16..3), -10.0_f64..10.0)
            .prop_map(|(kind, value)| Expr::Param(ParamSlot { kind, value })),
    ];
    leaf.prop_recursive(6, 64, 2, |inner| {
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

fn arb_ctx() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        prop::collection::vec(-1e3_f64..1e3, 4),
        prop::collection::vec(-1e3_f64..1e3, 2),
    )
}

/// Like [`arb_expr`] but with non-finite literals mixed into the leaves, so
/// the optimizer's NaN/±inf paths get exercised too.
fn arb_wild_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1e3_f64..1e3).prop_map(Expr::Num),
        prop_oneof![
            Just(Expr::Num(f64::NAN)),
            Just(Expr::Num(f64::INFINITY)),
            Just(Expr::Num(f64::NEG_INFINITY)),
            Just(Expr::Num(0.0)),
            Just(Expr::Num(-0.0)),
        ],
        (0u8..4).prop_map(Expr::Var),
        (0u8..2).prop_map(Expr::State),
    ];
    leaf.prop_recursive(5, 48, 2, |inner| {
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

/// Contexts whose forcings/states may be non-finite.
fn arb_wild_ctx() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let wild = prop_oneof![
        4 => -1e3_f64..1e3,
        1 => prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
    ];
    (
        prop::collection::vec(wild.clone(), 4),
        prop::collection::vec(wild, 2),
    )
}

/// Shift every mutable parameter slot by `delta`, leaving structure intact —
/// the shape of a local-search parameter mutation.
fn shift_params(e: &Expr, delta: f64) -> Expr {
    match e {
        Expr::Param(p) => Expr::Param(ParamSlot {
            kind: p.kind,
            value: p.value + delta,
        }),
        Expr::Num(_) | Expr::Var(_) | Expr::State(_) => e.clone(),
        Expr::Unary(op, a) => Expr::un(*op, shift_params(a, delta)),
        Expr::Binary(op, a, b) => Expr::bin(*op, shift_params(a, delta), shift_params(b, delta)),
    }
}

/// Bitwise equality that treats any-NaN == any-NaN (the protected operators
/// make NaN unreachable from finite inputs, but proptest should not rely on
/// that while testing it).
fn feq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

/// Every tier whose contract is bit-exactness vs the interpreter. The
/// threaded tier is always bit-exact; the simd tier is bit-exact exactly
/// when its vector kernels are dormant (no AVX2+FMA at run time) and it
/// falls back to the threaded thunks.
fn exact_tiers() -> Vec<Tier> {
    Tier::ALL
        .into_iter()
        .filter(|t| t.fidelity() == Fidelity::BitExact)
        .collect()
}

/// Relative closeness for the relaxed-simd fidelity class: the vector
/// transcendentals are allowed to differ from libm in the last few ulps.
fn close(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= 1e-12 + 1e-9 * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn simplify_preserves_semantics(e in arb_expr(), (vars, state) in arb_ctx()) {
        let ctx = EvalContext { vars: &vars, state: &state };
        let s = simplify(&e);
        prop_assert!(feq(e.eval(&ctx), s.eval(&ctx)),
            "simplify changed value: {} vs {}", e.eval(&ctx), s.eval(&ctx));
    }

    #[test]
    fn simplify_never_grows(e in arb_expr()) {
        prop_assert!(simplify(&e).size() <= e.size());
    }

    #[test]
    fn simplify_is_idempotent(e in arb_expr()) {
        let once = simplify(&e);
        prop_assert_eq!(simplify(&once), once);
    }

    #[test]
    fn compiled_simplified_matches_too(e in arb_expr(), (vars, state) in arb_ctx()) {
        // The production path: simplify, then compile, then evaluate.
        let ctx = EvalContext { vars: &vars, state: &state };
        let sys = CompiledSystem::compile(&[simplify(&e)], Tier::Threaded);
        let mut out = [0.0];
        sys.eval_step(&ctx, &mut sys.scratch(), &mut out);
        prop_assert!(feq(out[0], e.eval(&ctx)));
    }

    #[test]
    fn protected_eval_of_finite_inputs_is_not_nan(e in arb_expr(), (vars, state) in arb_ctx()) {
        // Protected operators keep NaN unreachable from finite forcings
        // except through inf-inf style cancellation; verify the common case
        // that the magnitude stays bounded for bounded inputs of bounded depth.
        let ctx = EvalContext { vars: &vars, state: &state };
        let v = e.eval(&ctx);
        // Depth <= 7 with |leaf| <= 1e3 and protected exp clamp cannot reach
        // f64::MAX-scale products that overflow to inf.
        prop_assert!(v.is_finite(), "non-finite value {v}");
    }

    #[test]
    fn structural_hash_equal_for_clones(e in arb_expr()) {
        prop_assert_eq!(e.clone().structural_hash(), e.structural_hash());
    }

    #[test]
    fn canonicalisation_merges_commuted_operands(a in arb_expr(), b in arb_expr()) {
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max] {
            let x = simplify(&Expr::bin(op, a.clone(), b.clone()));
            let y = simplify(&Expr::bin(op, b.clone(), a.clone()));
            prop_assert_eq!(x.structural_hash(), y.structural_hash());
        }
    }

    #[test]
    fn optimized_system_matches_interpreter_at_every_tier(
        eqs in prop::collection::vec(arb_expr(), 1..3),
        (vars, state) in arb_ctx(),
    ) {
        // The tentpole invariant: constant folding, peephole rewrites,
        // cross-equation CSE, register allocation, fusion, the prefix
        // split, and the threaded-code thunks must all be bit-exact under
        // protected semantics (the simd tier too, whenever its vector
        // kernels are dormant and it runs the scalar fallback).
        let ctx = EvalContext { vars: &vars, state: &state };
        let expect: Vec<f64> = eqs.iter().map(|e| e.eval(&ctx)).collect();
        for tier in exact_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);
            let mut scratch = sys.scratch();
            let mut out = vec![0.0; sys.n_eqs()];
            sys.eval_step(&ctx, &mut scratch, &mut out);
            for (i, (&want, &got)) in expect.iter().zip(&out).enumerate() {
                prop_assert!(feq(want, got),
                    "tier {tier:?} eq {i}: interpreter {want} vs VM {got}");
            }
        }
    }

    #[test]
    fn optimized_system_matches_on_non_finite_inputs(
        eqs in prop::collection::vec(arb_wild_expr(), 1..3),
        (vars, state) in arb_wild_ctx(),
    ) {
        // NaN / ±inf forcings and literals: the peepholes and CSE must not
        // assume finiteness anywhere (this is why x*0 → 0 is NOT a rewrite).
        let ctx = EvalContext { vars: &vars, state: &state };
        let expect: Vec<f64> = eqs.iter().map(|e| e.eval(&ctx)).collect();
        for tier in exact_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);
            let mut scratch = sys.scratch();
            let mut out = vec![0.0; sys.n_eqs()];
            sys.eval_step(&ctx, &mut scratch, &mut out);
            for (i, (&want, &got)) in expect.iter().zip(&out).enumerate() {
                prop_assert!(feq(want, got),
                    "tier {tier:?} eq {i}: interpreter {want} vs VM {got}");
            }
        }
    }

    #[test]
    fn split_session_matches_interpreter_over_forcing_rows(
        eqs in prop::collection::vec(arb_expr(), 2..3),
        rows in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 4), 1..80),
        states in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 2), 1..4),
    ) {
        // The columnar prefix sweep: a session over up to 80 rows (crossing
        // the 32-lane chunk boundary twice) must agree with per-row
        // interpretation at every (row, state) pair, including revisits of
        // the same row with a different state, for every bit-exact tier.
        for tier in exact_tiers() {
            let sys = CompiledSystem::compile(&eqs, tier);
            let mut session = sys.session(&rows);
            let mut out = vec![0.0; sys.n_eqs()];
            for (t, row) in rows.iter().enumerate() {
                for state in &states {
                    let ctx = EvalContext { vars: row, state };
                    session.step(t, state, &mut out);
                    for (i, (eq, &got)) in eqs.iter().zip(&out).enumerate() {
                        let want = eq.eval(&ctx);
                        prop_assert!(feq(want, got),
                            "tier {tier:?} row {t} eq {i}: interpreter {want} vs session {got}");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_session_lanes_match_solo_sessions(
        eqs in prop::collection::vec(arb_expr(), 1..3),
        rows in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 4), 1..80),
        inits in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 2), 1..6),
    ) {
        // Lock-step lane stepping (the batching server's and the SIMD
        // backend's execution shape) is bit-identical to running each
        // trajectory through its own solo session — for every tier,
        // including an *active* simd tier, where both sides take the same
        // vector paths. Rows cross the 32-lane chunk boundary twice.
        let k = inits.len();
        for tier in Tier::ALL {
            let sys = CompiledSystem::compile(&eqs, tier);
            let n_eqs = sys.n_eqs();
            let mut want = vec![0.0; k * n_eqs];
            let mut solo: Vec<_> = (0..k).map(|_| sys.session(&rows)).collect();
            let prefix = sys.sweep_prefix(&rows);
            let mut multi = sys.lane_session(LaneForcing::Shared { rows: &rows, prefix: &prefix, lanes: k });
            let states: Vec<f64> = inits.iter().flatten().copied().collect();
            let mut out = vec![0.0; k * n_eqs];
            for t in 0..rows.len() {
                for (l, session) in solo.iter_mut().enumerate() {
                    session.step(t, &states[l * 2..l * 2 + 2], &mut want[l * n_eqs..(l + 1) * n_eqs]);
                }
                multi.step(t, &states, &mut out);
                for l in 0..k {
                    for e in 0..n_eqs {
                        prop_assert!(feq(out[l * n_eqs + e], want[l * n_eqs + e]),
                            "tier {tier:?} lane {l} eq {e} at t={t}: solo {} vs multi {}",
                            want[l * n_eqs + e], out[l * n_eqs + e]);
                    }
                }
            }
        }
    }

    #[test]
    fn simd_session_stays_within_relaxed_tolerance(
        eqs in prop::collection::vec(arb_expr(), 2..3),
        rows in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 4), 1..80),
        states in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 2), 1..4),
    ) {
        // With the vector kernels live, the simd tier's fidelity class is
        // relaxed-simd: outputs may differ from libm in the last ulps of
        // the vector transcendentals but must stay relatively close, and
        // finite inputs must never produce NaN the interpreter doesn't.
        let sys = CompiledSystem::compile(&eqs, Tier::Simd);
        let mut session = sys.session(&rows);
        let mut out = vec![0.0; sys.n_eqs()];
        for (t, row) in rows.iter().enumerate() {
            for state in &states {
                let ctx = EvalContext { vars: row, state };
                session.step(t, state, &mut out);
                for (i, (eq, &got)) in eqs.iter().zip(&out).enumerate() {
                    let want = eq.eval(&ctx);
                    prop_assert!(close(want, got),
                        "row {t} eq {i}: interpreter {want} vs simd session {got}");
                }
            }
        }
    }

    #[test]
    fn var_operand_pow_div_prefix_matches_interpreter(
        rows in prop::collection::vec(prop::collection::vec(0.1_f64..50.0, 4), 33..80),
        states in prop::collection::vec(prop::collection::vec(-1e2_f64..1e2, 2), 1..3),
    ) {
        // VarBinL/VarBinR pow and div inside the state-independent prefix
        // — the shapes the gathered-operand vector kernels cover. Rows
        // cross the 32-lane chunk boundary so both the full-stripe and
        // ragged-tail paths run. Bit-exact whenever the vector kernels
        // are dormant; with them live, div stays bit-exact (protected
        // kernel) and pow is relaxed to relative closeness.
        let inner = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Var(2), Expr::Num(0.05)),
            Expr::Num(1.25),
        );
        let eqs = vec![
            // pow: var base (VarBinL), var exponent (VarBinR)
            Expr::bin(BinOp::Mul, Expr::bin(BinOp::Pow, Expr::Var(0), inner.clone()), Expr::State(0)),
            Expr::bin(BinOp::Add, Expr::bin(BinOp::Pow, inner.clone(), Expr::Var(3)), Expr::State(1)),
            // div: var numerator (VarBinL), var divisor (VarBinR)
            Expr::bin(BinOp::Mul, Expr::bin(BinOp::Div, Expr::Var(0), inner.clone()), Expr::State(0)),
            Expr::bin(BinOp::Add, Expr::bin(BinOp::Div, inner, Expr::Var(1)), Expr::State(1)),
        ];
        for tier in Tier::ALL {
            let relaxed = tier.fidelity() == Fidelity::RelaxedSimd;
            let sys = CompiledSystem::compile(&eqs, tier);
            let mut session = sys.session(&rows);
            let mut out = vec![0.0; sys.n_eqs()];
            for (t, row) in rows.iter().enumerate() {
                for state in &states {
                    let ctx = EvalContext { vars: row, state };
                    session.step(t, state, &mut out);
                    for (i, (eq, &got)) in eqs.iter().zip(&out).enumerate() {
                        let want = eq.eval(&ctx);
                        // eqs 0/1 are the relaxed pow shapes; 2/3 divide.
                        let ok = if relaxed && i < 2 { close(want, got) } else { feq(want, got) };
                        prop_assert!(ok,
                            "tier {tier:?} row {t} eq {i}: interpreter {want} vs session {got}");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_prefix_table_matches_on_demand_sweep(
        eqs in prop::collection::vec(arb_expr(), 1..3),
        rows in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 4), 2..80),
        inits in prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 2), 1..4),
        take in 0.1_f64..1.0,
    ) {
        // A cached `PrefixTable` swept once over the full forcing table
        // must reproduce the on-demand sweep of solo sessions bit-for-bit
        // — including for sessions over a *prefix* of the table (the
        // serving shape: one cached table per (model, forcing table),
        // arbitrary per-request horizons), where the on-demand sweep ends
        // in a ragged tail chunk the full-table sweep computed as part of
        // a full stripe.
        let k = inits.len();
        let days = ((rows.len() as f64 * take).ceil() as usize).clamp(1, rows.len());
        for tier in Tier::ALL {
            let sys = CompiledSystem::compile(&eqs, tier);
            let table = sys.sweep_prefix(&rows);
            let states: Vec<f64> = inits.iter().flatten().copied().collect();
            let head = &rows[..days];
            let n_eqs = sys.n_eqs();
            let mut on_demand: Vec<_> = (0..k).map(|_| sys.session(head)).collect();
            let mut shared = sys.lane_session(LaneForcing::Shared { rows: head, prefix: &table, lanes: k });
            let mut out_a = vec![0.0; k * n_eqs];
            let mut out_b = vec![0.0; k * n_eqs];
            for t in 0..days {
                for (l, session) in on_demand.iter_mut().enumerate() {
                    session.step(t, &states[l * 2..l * 2 + 2], &mut out_a[l * n_eqs..(l + 1) * n_eqs]);
                }
                shared.step(t, &states, &mut out_b);
                for (i, (&x, &y)) in out_a.iter().zip(&out_b).enumerate() {
                    prop_assert!(feq(x, y),
                        "tier {tier:?} t={t} slot {i}: on-demand {x} vs shared {y}");
                }
            }
        }
    }

    #[test]
    fn param_mutation_plus_recompile_tracks_interpreter(
        eqs in prop::collection::vec(arb_expr(), 1..3),
        (vars, state) in arb_ctx(),
        delta in -5.0_f64..5.0,
    ) {
        // The local-search loop: mutate every parameter slot, recompile,
        // and the new programs must track the mutated interpreter exactly
        // (compiled constants are frozen at compile time, so recompilation
        // is the only legal way to observe a mutation).
        let mutated: Vec<Expr> = eqs.iter().map(|e| shift_params(e, delta)).collect();
        let ctx = EvalContext { vars: &vars, state: &state };
        let sys = CompiledSystem::compile(&mutated, Tier::Threaded);
        let mut scratch = sys.scratch();
        let mut out = vec![0.0; sys.n_eqs()];
        sys.eval_step(&ctx, &mut scratch, &mut out);
        for (i, (eq, &got)) in mutated.iter().zip(&out).enumerate() {
            let want = eq.eval(&ctx);
            prop_assert!(feq(want, got),
                "eq {i} after mutation: interpreter {want} vs VM {got}");
        }
    }

    #[test]
    fn display_parse_round_trip(e in arb_expr()) {
        let names = NameTable::new(
            &["Va", "Vb", "Vc", "Vd"],
            &["BPhy", "BZoo"],
            &["C0", "C1", "C2"],
        );
        let shown = e.display(&names).to_string();
        let parsed = gmr_expr::parse(&shown, &names, |_| 0.0)
            .unwrap_or_else(|err| panic!("reparse of '{shown}' failed: {err}"));
        // Values may print with full precision; require structural equality
        // under bit-accurate f64 formatting (Rust's Display is round-trip).
        prop_assert_eq!(parsed, e);
    }
}

/// A second quiet-NaN payload next to `f64::NAN`'s.
const OTHER_NAN: u64 = 0x7ff8_0000_0000_0001;

/// A forcing value for the per-lane reuse property: mostly finite, with
/// both zeros, both infinities and two NaN payloads mixed in.
fn arb_forcing_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => -1e3_f64..1e3,
        1 => prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::from_bits(OTHER_NAN)),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
    ]
}

/// `x` with other bits where `==` cannot tell: the other zero, the other
/// NaN payload; any other value unchanged.
fn twin(x: f64) -> f64 {
    if x == 0.0 {
        -x
    } else if x.is_nan() && x.to_bits() != OTHER_NAN {
        f64::from_bits(OTHER_NAN)
    } else if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// Bitwise equality, except that any NaN equals any NaN: the scalar core
/// and the lane kernels need not agree on a NaN's payload.
fn beq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn per_lane_tables_sharing_columns_match_solo_sessions(
        mut eqs in prop::collection::vec(arb_wild_expr(), 1..3),
        shown in 0u8..4,
        base in prop::collection::vec(prop::collection::vec(arb_forcing_value(), 4), 1..100)
            .prop_filter("row count off the chunk boundary", |rows| rows.len() % 32 != 0),
        perturb in prop::collection::vec(
            prop::collection::vec(
                (
                    1u8..16,
                    0usize..100,
                    1usize..40,
                    prop_oneof![arb_forcing_value().prop_map(Some), Just(None)],
                ),
                0..4,
            ),
            0..32,
        ),
    ) {
        // A sweep's variants: every table copies table 0, then rewrites
        // some columns over some row ranges, with a value or with each
        // cell's `twin`. Per-lane prefix sweeps reuse lane 0's work
        // wherever a lane's forcing inputs hold the same bits over a chunk;
        // each lane must still match its own solo session. `-v` as an
        // equation carries a forcing zero's sign through to the output.
        eqs.push(Expr::un(UnOp::Neg, Expr::Var(shown)));
        let n_rows = base.len();
        let mut tables = vec![base.clone()];
        for edits in &perturb {
            let mut table = base.clone();
            for &(cols, start, len, value) in edits {
                for row in table.iter_mut().skip(start).take(len) {
                    for (c, x) in row.iter_mut().enumerate() {
                        if cols & (1 << c) != 0 {
                            *x = value.unwrap_or_else(|| twin(*x));
                        }
                    }
                }
            }
            tables.push(table);
        }
        let k = tables.len();
        let refs: Vec<&[Vec<f64>]> = tables.iter().map(Vec::as_slice).collect();
        let states: Vec<f64> = (0..k).flat_map(|l| [1.0 + l as f64, 0.5]).collect();
        for tier in Tier::ALL {
            let sys = CompiledSystem::compile(&eqs, tier);
            let n_eqs = sys.n_eqs();
            let mut lanes = sys.lane_session(LaneForcing::PerLane(&refs));
            let mut solo: Vec<_> = tables.iter().map(|t| sys.session(t)).collect();
            let mut out = vec![0.0; k * n_eqs];
            let mut want = vec![0.0; n_eqs];
            for t in 0..n_rows {
                lanes.step(t, &states, &mut out);
                for (l, session) in solo.iter_mut().enumerate() {
                    session.step(t, &states[l * 2..l * 2 + 2], &mut want);
                    for e in 0..n_eqs {
                        prop_assert!(beq(out[l * n_eqs + e], want[e]),
                            "tier {tier:?} lane {l} eq {e} at t={t}: solo {} vs lanes {}",
                            want[e], out[l * n_eqs + e]);
                    }
                }
            }
        }
    }
}

/// One member of a group: a variant of the group's base system.
fn group_member(base: &[Expr], kind: u8, c: f64, own: &Expr, shown: u8) -> Vec<Expr> {
    let v = Expr::Var(shown);
    match kind {
        0 => base.to_vec(),
        // Members that differ only in `c`: pinned in a register (the
        // forcing load fuses into the multiply) and inline (`ConstBin`).
        1 => {
            let mut eqs = base.to_vec();
            eqs.push(Expr::bin(BinOp::Mul, v.clone(), Expr::Num(c)));
            eqs.push(Expr::bin(BinOp::Mul, Expr::un(UnOp::Exp, v), Expr::Num(c)));
            eqs
        }
        // A system of its own that shares the base's first equation.
        _ => vec![own.clone(), base[0].clone()],
    }
}

/// Constants that `==` confuses: both zeros and two NaN payloads, beside
/// ordinary values.
fn arb_group_const() -> impl Strategy<Value = f64> {
    prop_oneof![
        -10.0_f64..10.0,
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(2.5),
            Just(f64::NAN),
            Just(f64::from_bits(OTHER_NAN)),
        ],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn group_sessions_match_solo_sessions(
        base in prop::collection::vec(arb_wild_expr(), 1..3),
        members in prop::collection::vec(
            (0u8..3, arb_group_const(), arb_wild_expr(), 0usize..140),
            1..41,
        ),
        shown in 0u8..4,
        rows in prop::collection::vec(prop::collection::vec(arb_forcing_value(), 4), 1..100)
            .prop_filter("row count off the chunk boundary", |rows| rows.len() % 32 != 0),
        member_major in any::<bool>(),
    ) {
        // An evaluation round's candidates: duplicates, variants that
        // differ only in a constant (or only in the sign of a zero, or a
        // NaN's payload), and systems of their own, each retiring at its
        // own step. Merging their prefixes by value numbering must leave
        // every member's outputs bit for bit those of its solo session,
        // whichever order the members step in within a chunk.
        let n = rows.len();
        let systems: Vec<Vec<Expr>> = members
            .iter()
            .map(|(kind, c, own, _)| group_member(&base, *kind, *c, own, shown))
            .collect();
        let retire: Vec<usize> = members.iter().map(|m| m.3.min(n)).collect();
        for tier in Tier::ALL {
            let compiled: Vec<CompiledSystem> =
                systems.iter().map(|eqs| CompiledSystem::compile(eqs, tier)).collect();
            let refs: Vec<&CompiledSystem> = compiled.iter().collect();
            let mut group = CompiledSystem::group_session(&refs, &rows);
            let mut solo: Vec<_> = compiled.iter().map(|s| s.session(&rows)).collect();
            let mut check = |m: usize, t: usize| -> Result<(), TestCaseError> {
                let state = [1.0 + m as f64, 0.5];
                let mut want = vec![0.0; compiled[m].n_eqs()];
                let mut got = want.clone();
                solo[m].step(t, &state, &mut want);
                group.step(m, t, &state, &mut got);
                for (e, (w, g)) in want.iter().zip(&got).enumerate() {
                    prop_assert!(w.to_bits() == g.to_bits(),
                        "tier {tier:?} member {m} eq {e} at t={t}: solo {w} vs group {g}");
                }
                Ok(())
            };
            for first in (0..n).step_by(32) {
                let days = first..n.min(first + 32);
                if member_major {
                    for (m, &stop) in retire.iter().enumerate() {
                        for t in days.clone().take_while(|&t| t < stop) {
                            check(m, t)?;
                        }
                    }
                } else {
                    for t in days {
                        for (m, &stop) in retire.iter().enumerate() {
                            if t < stop {
                                check(m, t)?;
                            }
                        }
                    }
                }
            }
        }
    }
}
