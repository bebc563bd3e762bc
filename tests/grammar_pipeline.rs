//! Property-style integration over the *river* grammar (not the toy test
//! fixtures): the full TAG pipeline must be closed under every genetic
//! operator, and every reachable genotype must lower to an evaluable
//! two-equation system.

use gmr_suite::bio::river_grammar;
use gmr_suite::core::river_priors;
use gmr_suite::expr::{CompiledSystem, EvalContext, Tier};
use gmr_suite::gp::{crossover, deletion, gaussian_mutation, insertion, subtree_mutation};
use gmr_suite::tag::lower::lower_system;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn forcing_row() -> [f64; gmr_suite::hydro::NUM_VARS] {
    let mut row = [0.0; gmr_suite::hydro::NUM_VARS];
    row[0] = 15.0; // Vlgt
    row[1] = 2.0; // Vn
    row[2] = 0.05; // Vp
    row[3] = 3.0; // Vsi
    row[4] = 22.0; // Vtmp
    row[5] = 8.0; // Vdo
    row[6] = 300.0; // Vcd
    row[7] = 7.8; // Vph
    row[8] = 55.0; // Valk
    row[9] = 1.0; // Vsd
    row
}

fn assert_sound(tree: &gmr_suite::tag::DerivTree, g: &gmr_suite::tag::Grammar, what: &str) {
    tree.validate(g)
        .unwrap_or_else(|e| panic!("{what}: invalid genotype: {e}"));
    let eqs = lower_system(&tree.derived(g), 2)
        .unwrap_or_else(|e| panic!("{what}: failed to lower: {e}"));
    let row = forcing_row();
    let ctx = EvalContext {
        vars: &row,
        state: &[10.0, 2.0],
    };
    for eq in &eqs {
        assert!(eq.eval(&ctx).is_finite(), "{what}: non-finite evaluation");
    }
}

#[test]
fn the_pipeline_is_closed_under_every_operator() {
    let rg = river_grammar();
    let g = &rg.grammar;
    let priors = river_priors();
    let mut rng = StdRng::seed_from_u64(0xB10);
    for round in 0..200 {
        let mut a = g.random_tree(&mut rng, 2, 50);
        let mut b = g.random_tree(&mut rng, 2, 50);
        match round % 5 {
            0 => {
                crossover(&mut a, &mut b, g, &mut rng, 2, 50, 8);
                assert_sound(&b, g, "crossover-b");
            }
            1 => {
                subtree_mutation(&mut a, g, &mut rng, 50, 8);
            }
            2 => {
                gaussian_mutation(&mut a, g, &priors, rng.gen_range(0.1..1.0), &mut rng);
            }
            3 => {
                insertion(&mut a, g, &mut rng, 50);
            }
            _ => {
                deletion(&mut a, g, &mut rng, 2);
            }
        }
        assert_sound(&a, g, "operator output");
        assert!(a.size() <= 50, "size bound violated: {}", a.size());
    }
}

#[test]
fn gaussian_mutation_respects_table_iii_bounds_on_river_genotypes() {
    let rg = river_grammar();
    let priors = river_priors();
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..50 {
        let mut t = rg.grammar.random_tree(&mut rng, 5, 30);
        gaussian_mutation(&mut t, &rg.grammar, &priors, 1.0, &mut rng);
        for (kind, v) in t.root.mutable_params(&rg.grammar) {
            let spec = gmr_suite::bio::params::spec(kind);
            assert!(
                *v >= spec.min && *v <= spec.max,
                "{}: {} outside [{}, {}]",
                spec.name,
                v,
                spec.min,
                spec.max
            );
        }
    }
}

#[test]
fn chromosome_sizes_span_the_configured_range() {
    let rg = river_grammar();
    let mut rng = StdRng::seed_from_u64(7);
    let mut seen_small = false;
    let mut seen_large = false;
    for _ in 0..300 {
        let t = rg.grammar.random_tree(&mut rng, 2, 50);
        if t.size() <= 5 {
            seen_small = true;
        }
        if t.size() >= 40 {
            seen_large = true;
        }
    }
    assert!(
        seen_small && seen_large,
        "initialisation should cover the size range"
    );
}

#[test]
fn simplification_is_sound_on_river_phenotypes() {
    let rg = river_grammar();
    let mut rng = StdRng::seed_from_u64(3);
    let row = forcing_row();
    for _ in 0..100 {
        let t = rg.grammar.random_tree(&mut rng, 2, 40);
        let eqs = lower_system(&t.derived(&rg.grammar), 2).expect("lowers");
        for eq in &eqs {
            let s = gmr_suite::expr::simplify(eq);
            for bphy in [0.1, 10.0, 200.0] {
                let ctx = EvalContext {
                    vars: &row,
                    state: &[bphy, 2.0],
                };
                assert_eq!(
                    eq.eval(&ctx),
                    s.eval(&ctx),
                    "simplify changed river phenotype"
                );
            }
            assert!(s.size() <= eq.size());
        }
    }
}

#[test]
fn compiled_river_phenotypes_match_interpreter() {
    let rg = river_grammar();
    let mut rng = StdRng::seed_from_u64(9);
    let row = forcing_row();
    for _ in 0..100 {
        let t = rg.grammar.random_tree(&mut rng, 2, 40);
        let eqs = lower_system(&t.derived(&rg.grammar), 2).expect("lowers");
        let sys = CompiledSystem::compile(&eqs, Tier::Threaded);
        let ctx = EvalContext {
            vars: &row,
            state: &[12.0, 3.0],
        };
        let mut out = vec![0.0; eqs.len()];
        sys.eval_step(&ctx, &mut sys.scratch(), &mut out);
        for (eq, got) in eqs.iter().zip(&out) {
            assert_eq!(*got, eq.eval(&ctx));
        }
    }
}
