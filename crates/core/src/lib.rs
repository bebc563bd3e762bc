//! Genetic Model Revision (GMR) — the paper's primary contribution.
//!
//! This crate ties the stack together into the framework of Fig. 5: the
//! three kinds of prior knowledge (plausible processes, plausible revisions,
//! parameter priors — all compiled by `gmr-bio` into a TAG grammar and
//! priors) govern a TAG3P search (`gmr-gp`) over revisions of the expert
//! river model, evaluated by forward integration against observations
//! (`gmr-bio` + `gmr-hydro`).
//!
//! * [`evaluator`] — the adapter implementing the GP engine's fitness trait
//!   for the river problem;
//! * [`gmr`] — the top-level [`gmr::Gmr`] runner: configure, run (or
//!   run repeatedly with different seeds, as the paper's 60-run protocol
//!   does), obtain revised models with train/test scores;
//! * [`analysis`] — the §IV-E interpretability toolkit: extension usage,
//!   variable selectivity among the best models, and perturbation-based
//!   correlation signs (Fig. 9).

pub mod analysis;
pub mod evaluator;
pub mod gmr;

/// The workspace's shared zero-dependency JSON module ([`gmr_json`]),
/// re-exported so artifact tooling built on `gmr-core` reaches the same
/// parser the observability and serving layers use.
pub use gmr_json as json;

pub use analysis::{extension_usage, perturb_correlation, selectivity, Correlation};
pub use evaluator::{river_priors, RiverEvaluator};
pub use gmr::{Gmr, GmrConfig, GmrResult};
