//! TAG3P — tree-adjoining-grammar guided genetic programming.
//!
//! The evolutionary engine of §III-B, with the efficiency techniques of
//! §III-D. It is domain-agnostic: everything river-specific arrives through
//! a [`Grammar`](gmr_tag::Grammar) (the search space), an [`Evaluator`]
//! (the fitness problem) and [`ParamPriors`] (Gaussian-mutation bounds).
//!
//! Components:
//!
//! * [`priors`] — parameter priors driving Gaussian mutation (mean/σ/bounds,
//!   with the paper's σ = mean/4 default and end-of-run ramp-down);
//! * [`operators`] — the genetic operators on derivation trees: crossover,
//!   subtree mutation, Gaussian mutation, and the local-search moves
//!   (insertion, deletion) of Fig. 6;
//! * [`cache`] — tree caching keyed by the canonical (simplified) structural
//!   hash of the lowered system, owned by the engine's coordinating thread;
//! * [`short_circuit`] — evaluation short-circuiting (Algorithm 1) with a
//!   tunable eagerness threshold;
//! * [`phenotype`] — the memoised lowered + simplified + bytecode-compiled
//!   system, cached per individual and invalidated only when an operator
//!   touches the genotype;
//! * [`pool`] — the evaluation pool: each round runs on scoped threads that
//!   claim chunks of items dynamically from one shared iterator;
//! * [`engine`] — the generational loop: tournament selection, elitism,
//!   offspring production, stochastic hill-climbing local search, and
//!   evaluation rounds in which the coordinating thread looks up and
//!   records results while the pool evaluates each distinct miss once —
//!   so the search and every counter are the same at any thread count.

pub mod cache;
pub mod engine;
pub mod individual;
pub mod operators;
pub mod phenotype;
pub mod pool;
pub mod priors;
pub mod short_circuit;

pub use cache::TreeCache;
pub use engine::{Engine, Evaluator, GenStats, GpConfig, InvariantHook, RunReport};
pub use individual::Individual;
pub use operators::{
    crossover, deletion, gaussian_mutation, gaussian_mutation_partial, insertion, param_tweak,
    subtree_mutation,
};
pub use phenotype::Phenotype;
pub use pool::{PoolStats, WorkerStats};
pub use priors::ParamPriors;
pub use short_circuit::{EsController, EsOutcome};
