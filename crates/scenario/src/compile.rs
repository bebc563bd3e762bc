//! Scenario compilation: spec → topology → synthetic dataset → base
//! forcing table + transform context.
//!
//! Compilation is where "deterministic by construction" cashes out: the
//! topology generator and the synthetic generator both draw every value
//! from `spec.seed` in a fixed order, so the same spec compiles to a
//! bit-identical [`CompiledScenario`] on every host, every time. Sweep
//! variants derive from the compiled base by re-applying jittered
//! transform chains — never by re-generating — so variant tables are
//! bit-deterministic too.

use crate::forcing::{
    apply_transforms, variant_transforms, DamSite, ForcingCtx, Transform, ALL_COLUMNS,
};
use crate::spec::{ScenarioSpec, SpecError};
use crate::topology::build_topology;
use gmr_hydro::data::days_in_year;
use gmr_hydro::synthetic::{generate_on, SyntheticConfig};
use gmr_hydro::vars::NUM_VARS;
use gmr_hydro::StationKind;

/// First calendar year of every scenario study (matches the paper's
/// Nakdong record start).
pub const START_YEAR: i32 = 1996;

/// A compiled scenario: the admitted unit a server hosts and a sweep
/// executes against.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// The validated spec this compiled from.
    pub spec: ScenarioSpec,
    /// Days in the study.
    pub days: usize,
    /// The target (outlet) station's generated forcing table, before any
    /// transform — variant 0's table is this plus the spec's own chain.
    pub base: Vec<[f64; NUM_VARS]>,
    /// Calendar + dam-site context for transform application.
    pub ctx: ForcingCtx,
    /// Outlet station name (the simulated reach).
    pub outlet: String,
}

impl CompiledScenario {
    /// The forcing table of sweep variant `variant`: the base table with
    /// that variant's (jittered) transform chain applied.
    pub fn variant_rows(&self, variant: u32) -> Vec<[f64; NUM_VARS]> {
        self.variant_rows_for(variant, &ALL_COLUMNS)
    }

    /// Variant `variant`'s table as a model reading only the columns
    /// `cols` sees it: those columns equal [`variant_rows`]'s bit for bit,
    /// the others keep their base values, and the transform work only
    /// they would need is skipped.
    ///
    /// [`variant_rows`]: Self::variant_rows
    pub fn variant_rows_for(&self, variant: u32, cols: &[bool; NUM_VARS]) -> Vec<[f64; NUM_VARS]> {
        let chain = variant_transforms(
            &self.spec.transforms,
            self.spec.seed,
            self.spec.spread,
            variant,
        );
        let mut rows = self.base.clone();
        apply_transforms(&mut rows, &chain, &self.ctx, cols);
        rows
    }
}

/// Compile a spec: grow the topology, run the synthetic generator over
/// it, and resolve every dam control point against the generated
/// hydrology. Errors are admission failures (safe to echo in a 400).
pub fn compile(spec: &ScenarioSpec) -> Result<CompiledScenario, SpecError> {
    let (net, envs) = build_topology(spec);

    // Dams must name real, physical stations before we pay for
    // generation.
    for t in &spec.transforms {
        if let Transform::Dam(d) = t {
            let sid = net.by_name(&d.station).ok_or_else(|| {
                SpecError(format!(
                    "dam station `{}` is not in the topology",
                    d.station
                ))
            })?;
            if net.station(sid).kind == StationKind::Virtual {
                return Err(SpecError(format!(
                    "dam station `{}` is a virtual confluence",
                    d.station
                )));
            }
        }
    }

    let cfg = SyntheticConfig {
        seed: spec.seed,
        start_year: START_YEAR,
        end_year: START_YEAR + spec.years as i32 - 1,
        train_end_year: START_YEAR + spec.years as i32 - 1,
        ..Default::default()
    };
    let ds = generate_on(&cfg, net, &envs);
    let days = ds.days;

    // Calendar: day-of-year and month per row (mirrors the generator's
    // own calendar walk).
    let mut doy = Vec::with_capacity(days);
    let mut month = Vec::with_capacity(days);
    {
        let mut year = START_YEAR;
        let mut d = 0usize;
        while doy.len() < days {
            doy.push(d as f64);
            month.push(month_of_doy(d, days_in_year(year) == 366));
            d += 1;
            if d >= days_in_year(year) {
                d = 0;
                year += 1;
            }
        }
    }

    // Resolve dam sites against the generated hydrology, in transform
    // order.
    let target = ds.target;
    let q_target_mean =
        ds.stations[target.0].flow.iter().sum::<f64>() / ds.stations[target.0].flow.len() as f64;
    let mut dams = Vec::new();
    for t in &spec.transforms {
        if let Transform::Dam(d) = t {
            let sid = ds.network.by_name(&d.station).expect("checked above");
            // Travel delay from the dam to the outlet: sum of edge delays
            // along the (unique) downstream path.
            let mut lag = 0usize;
            let mut cur = sid;
            while let Some(e) = ds.network.downstream_of(cur) {
                lag += e.delay_days;
                cur = e.to;
            }
            let q_nat = ds.stations[sid.0].flow.clone();
            let q_mean = q_nat.iter().sum::<f64>() / q_nat.len() as f64;
            let share = if q_target_mean > 0.0 {
                (q_mean / q_target_mean).clamp(0.0, 1.0)
            } else {
                0.0
            };
            dams.push(DamSite { q_nat, lag, share });
        }
    }

    let outlet = ds.network.station(target).name.clone();
    Ok(CompiledScenario {
        spec: spec.clone(),
        days,
        base: ds.stations[target.0].vars.clone(),
        ctx: ForcingCtx { doy, month, dams },
        outlet,
    })
}

/// Month index (0–11) of a 0-based day-of-year.
fn month_of_doy(doy: usize, leap: bool) -> usize {
    let feb = if leap { 29 } else { 28 };
    let lengths = [31, feb, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let mut d = doy;
    for (m, len) in lengths.iter().enumerate() {
        if d < *len {
            return m;
        }
        d -= len;
    }
    11
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    fn spec_src(seed: u64) -> String {
        format!(
            r#"{{"schema": "gmr-scenario/v1", "name": "c", "seed": {seed},
                 "topology": {{"kind": "mainstem", "stations": 20}},
                 "years": 1,
                 "climate": [{{"kind": "drought", "scale": 0.8}}],
                 "dams": [{{"station": "n05", "capacity": 100000,
                            "release": 0.6, "overflow": 0.5}}]}}"#
        )
    }

    #[test]
    fn compiles_bit_deterministically() {
        let spec = parse_spec(&spec_src(5)).unwrap();
        let a = compile(&spec).unwrap();
        let b = compile(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.days, 366);
        assert_eq!(a.base.len(), 366);
        assert_eq!(a.ctx.dams.len(), 1);
        // Different seed, different world.
        let c = compile(&parse_spec(&spec_src(6)).unwrap()).unwrap();
        assert_ne!(a.base, c.base);
    }

    #[test]
    fn variant_rows_deterministic_and_distinct() {
        let spec = parse_spec(&spec_src(5)).unwrap();
        let scn = compile(&spec).unwrap();
        let v0a = scn.variant_rows(0);
        let v0b = scn.variant_rows(0);
        assert_eq!(v0a, v0b);
        let v1 = scn.variant_rows(1);
        let v2 = scn.variant_rows(2);
        assert_ne!(v0a, v1);
        assert_ne!(v1, v2);
        assert_eq!(v1, scn.variant_rows(1), "independent of call order");
    }

    #[test]
    fn column_sets_match_variant_rows_on_requested_columns() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let src = spec_src(5).replace(
            r#"[{"kind": "drought", "scale": 0.8}]"#,
            r#"[{"kind": "monsoon_shift", "days": 12},
                {"kind": "heatwave", "start_day": 150, "length": 30, "amp": 4},
                {"kind": "drought", "scale": 0.8}]"#,
        );
        let scn = compile(&parse_spec(&src).unwrap()).unwrap();
        assert_eq!(scn.spec.transforms.len(), 4, "every transform kind");
        let bits = |rows: &[[f64; NUM_VARS]]| -> Vec<u64> {
            rows.iter().flatten().map(|x| x.to_bits()).collect()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for variant in [0, 1, 9] {
            let full = scn.variant_rows(variant);
            assert_eq!(
                bits(&scn.variant_rows_for(variant, &ALL_COLUMNS)),
                bits(&full)
            );
            for _ in 0..8 {
                let mask: u16 = rng.gen_range(0..1 << NUM_VARS);
                let cols: [bool; NUM_VARS] = std::array::from_fn(|v| mask & (1 << v) != 0);
                let part = scn.variant_rows_for(variant, &cols);
                for (t, row) in part.iter().enumerate() {
                    for (v, x) in row.iter().enumerate() {
                        let want = if cols[v] { full[t][v] } else { scn.base[t][v] };
                        assert_eq!(
                            x.to_bits(),
                            want.to_bits(),
                            "variant {variant} row {t} col {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_unknown_or_virtual_dam_station() {
        let spec = parse_spec(&spec_src(5).replace("n05", "nope")).unwrap();
        assert!(compile(&spec).is_err());
    }

    #[test]
    fn month_calendar() {
        assert_eq!(month_of_doy(0, false), 0);
        assert_eq!(month_of_doy(31, false), 1);
        assert_eq!(month_of_doy(59, false), 2); // Mar 1 in a common year
        assert_eq!(month_of_doy(59, true), 1); // Feb 29 in a leap year
        assert_eq!(month_of_doy(364, false), 11);
    }
}
