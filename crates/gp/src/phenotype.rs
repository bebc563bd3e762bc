//! The compiled phenotype: lowered + simplified + register-VM-compiled
//! system.
//!
//! Deriving a phenotype from a genotype is the fixed per-candidate overhead
//! of every §III-D technique: the cache key requires lowering and algebraic
//! simplification, and runtime compilation requires lowering the simplified
//! system again — now through the optimizing register-VM pipeline
//! ([`gmr_expr::vm`]): cross-equation CSE, constant folding, fused
//! superinstructions and the state-independent prefix split. None of that
//! work depends on anything but the genotype, so the engine memoises the
//! result on the [`Individual`](crate::Individual) and invalidates it only
//! when a genetic operator actually touches the tree — elite survivors,
//! replicated offspring and the end-of-run champion re-evaluation all reuse
//! the memo instead of re-running simplify/hash/compile every generation.

use crate::cache::TreeCache;
use gmr_expr::{CompiledSystem, Expr, FidelityPolicy, Tier};

/// A fully derived phenotype, ready to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct Phenotype {
    eqs: Vec<Expr>,
    /// The whole system compiled as one unit (cross-equation CSE needs to
    /// see both equations); `None` when runtime compilation is off.
    compiled: Option<CompiledSystem>,
    key: (u64, u64),
}

impl Phenotype {
    /// Build from an already lowered + simplified system, compiling
    /// through the full optimizing pipeline when `compile` is set.
    pub fn build(eqs: Vec<Expr>, compile: bool) -> Self {
        let keys: Vec<_> = eqs.iter().map(|e| e.structural_hash()).collect();
        let key = TreeCache::system_key(&keys);
        let compiled = compile.then(|| {
            let _sp = gmr_obsv::span_fine!("vm.compile", eqs.len() as u64);
            // Fastest tier whose results are bit-identical to the
            // interpreter: fitness must not depend on the execution tier.
            CompiledSystem::compile(&eqs, Tier::fastest(FidelityPolicy::BitExact))
        });
        Phenotype { eqs, compiled, key }
    }

    /// The simplified equation system.
    pub fn eqs(&self) -> &[Expr] {
        &self.eqs
    }

    /// The compiled system — `None` when the phenotype was built with
    /// runtime compilation off.
    pub fn compiled(&self) -> Option<&CompiledSystem> {
        self.compiled.as_ref()
    }

    /// The tree-cache key of the system (combined structural hash of the
    /// simplified equations).
    pub fn key(&self) -> (u64, u64) {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_expr::{BinOp, EvalContext};

    fn system() -> Vec<Expr> {
        vec![
            Expr::bin(BinOp::Add, Expr::Var(0), Expr::Num(1.0)),
            Expr::bin(BinOp::Mul, Expr::State(0), Expr::Num(2.0)),
        ]
    }

    #[test]
    fn compiled_matches_interpreter() {
        let ph = Phenotype::build(system(), true);
        let sys = ph.compiled().expect("compiled on");
        let ctx = EvalContext {
            vars: &[3.0],
            state: &[5.0],
        };
        let mut scratch = sys.scratch();
        let mut out = vec![0.0; sys.n_eqs()];
        sys.eval_step(&ctx, &mut scratch, &mut out);
        for (eq, got) in ph.eqs().iter().zip(&out) {
            assert_eq!(eq.eval(&ctx), *got);
        }
    }

    #[test]
    fn uncompiled_has_no_bytecode() {
        let ph = Phenotype::build(system(), false);
        assert!(ph.compiled().is_none());
        assert_eq!(ph.eqs().len(), 2);
    }

    #[test]
    fn key_matches_system_key() {
        let eqs = system();
        let keys: Vec<_> = eqs.iter().map(|e| e.structural_hash()).collect();
        let expected = TreeCache::system_key(&keys);
        assert_eq!(Phenotype::build(eqs, true).key(), expected);
    }
}
