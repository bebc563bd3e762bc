//! The biological process layer: the expert model of river water quality.
//!
//! This crate encodes everything §II and §III-C of the paper specify about
//! the domain:
//!
//! * [`params`] — the sixteen constant parameters of Table III with their
//!   prior means and exploration bounds, plus the special `R` kind for the
//!   randomly initialised constants that revisions may introduce;
//! * [`manual`] — the expert equations (1)–(2): phytoplankton dynamics with
//!   Steele light response, Liebig nutrient limitation and the two-optimum
//!   temperature response, coupled to zooplankton growth/respiration/death
//!   (the M ANUAL baseline of Table V);
//! * [`mexpr`] — *marked expressions*: equation ASTs annotated with the
//!   `{…} Ext_k` extension points of eqs. (5)–(6);
//! * [`extensions`] — Table II verbatim: which variables, connectors and
//!   extenders apply to each extension point;
//! * [`grammar`] — compilation of the marked expert process + Table II into
//!   a `gmr_tag::Grammar` (the α-tree for the initial process, connector and
//!   extender β-trees, lexeme pools, parameter ranges);
//! * [`problem`] — the fitness problem: forward (Euler) integration of a
//!   two-equation system over the forcing series with incremental RMSE,
//!   ready for the GP engine's evaluation short-circuiting;
//! * [`network_sim`] — the full Appendix A coupling: the biological process
//!   running in every station's water body with flow-weighted biomass
//!   routing through the river DAG.

pub mod extensions;
pub mod grammar;
pub mod manual;
pub mod mexpr;
pub mod network_sim;
pub mod params;
pub mod problem;

pub use extensions::{ExtOp, ExtensionSpec, EXTENSIONS};
pub use grammar::{river_grammar, RiverGrammar};
pub use manual::{manual_system, name_table};
pub use mexpr::MExpr;
pub use network_sim::{
    network_rmse, simulate_network, simulate_network_compiled, NetworkSimOptions, NetworkSimResult,
    StationSeries,
};
pub use params::{ParamSpec, PARAMS, R_KIND, STATE_NAMES};
pub use problem::{euler, euler_step, RiverProblem, SimOptions};
