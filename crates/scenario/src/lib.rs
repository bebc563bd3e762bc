//! # gmr-scenario — parameterized river networks and what-if sweeps
//!
//! The paper's study is one river (the Nakdong), one hydrology, one
//! question. This crate turns that fixed study into a *scenario engine*:
//! a small declarative spec (`gmr-scenario/v1`) describes a river
//! network family, a climate regime, and dam control points, and the
//! engine compiles it into a concrete, bit-deterministic forcing world
//! that the serving stack can sweep over at cluster scale.
//!
//! Three layers:
//!
//! 1. **Topology** ([`build_topology`]) — grows a [`gmr_hydro::RiverNetwork`]
//!    of arbitrary size (mainstem chain, tributary tree, or braided
//!    confluences) from the spec's seed;
//! 2. **Forcing** ([`apply_transforms`]) — composable transforms over the
//!    generated forcing tables: monsoon timing shifts, heatwaves, drought
//!    scaling, and dam storage/release/overflow controls in the
//!    `DamStudy` shape;
//! 3. **Sweep** ([`SweepReducer`]) — fans one scenario into hundreds of
//!    jittered variants ([`CompiledScenario::variant_rows`]) and reduces
//!    each trajectory online to summary statistics.
//!
//! Everything is deterministic: the same spec + seed yields bit-identical
//! topology, forcing tables, variants, and summaries on every host. The
//! serving layer leans on this — a sweep summary computed through batched
//! SIMD lanes must equal the summary reduced from a solo `/simulate`
//! trajectory, bit for bit.

pub mod compile;
pub mod forcing;
pub mod spec;
pub mod sweep;
pub mod topology;

pub use compile::{compile, CompiledScenario, START_YEAR};
pub use forcing::{
    apply_transforms, variant_transforms, DamSite, DamSpec, ForcingCtx, Transform, ALL_COLUMNS,
};
pub use spec::{parse_spec, render_spec, ScenarioSpec, SpecError, TopologyKind, SCHEMA};
pub use sweep::{reduce_series, ReduceSpec, SweepReducer, SweepSummary};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end determinism: spec text → compile → variants is a pure
    /// function of the bytes.
    #[test]
    fn whole_crate_determinism() {
        let src = spec::demo_src();
        let a = compile(&parse_spec(&src).unwrap()).unwrap();
        let b = compile(&parse_spec(&src).unwrap()).unwrap();
        assert_eq!(a, b);
        for v in [0u32, 1, 17, 255] {
            assert_eq!(a.variant_rows(v), b.variant_rows(v), "variant {v}");
        }
        // And the canonical rendering re-parses to the same world.
        let rendered = render_spec(&a.spec);
        let c = compile(&parse_spec(&rendered).unwrap()).unwrap();
        assert_eq!(a, c);
    }
}
