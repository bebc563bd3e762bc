//! The forcing compiler: climate regimes and dam control points as
//! composable transforms over a generated forcing table.
//!
//! A transform is a pure function `rows → rows` (given the scenario's
//! calendar and hydrology context), applied in spec order. Composability
//! is the point: a sweep variant is just the same chain with jittered
//! parameters, and two transforms commute or not exactly as their physics
//! dictates — a heatwave after a drought heats the already-concentrated
//! river.
//!
//! Dams follow the DamStudy shape: a storage pool, a (monthly) release
//! schedule expressed as fractions of mean natural inflow, and an
//! overflow rule spilling a fraction of any excess above capacity. The
//! regulated outflow changes dilution downstream; concentration-like
//! columns of the forcing table scale by the flow ratio, attenuated by
//! the dam's share of the target station's flow.

use gmr_hydro::vars::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dam/reservoir control point (parsed from the spec's `dams` array).
#[derive(Debug, Clone, PartialEq)]
pub struct DamSpec {
    /// Name of the station whose flow the dam regulates.
    pub station: String,
    /// Storage capacity in the same volume units as daily flow.
    pub capacity: f64,
    /// Twelve monthly release fractions of mean natural inflow.
    pub release: Vec<f64>,
    /// Fraction of storage excess above capacity spilled per day.
    pub overflow: f64,
}

/// A composable forcing transform.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// Shift the monsoon-driven wash-in pattern by `days` within each
    /// year (positive = monsoon arrives later).
    MonsoonShift { days: f64 },
    /// An additive temperature bump of `amp` °C over `length` days
    /// starting at day-of-year `start_day`, every year.
    Heatwave {
        start_day: f64,
        length: f64,
        amp: f64,
    },
    /// Scale the water supply: `scale < 1` is drier (lower flow, higher
    /// concentrations), `scale > 1` wetter.
    Drought { scale: f64 },
    /// A dam control point (storage / release schedule / overflow rule).
    Dam(DamSpec),
}

/// Hydrology context a dam transform needs, resolved at scenario compile
/// time: the natural flow series at the dam's station, the travel delay
/// from there to the target, and the dam's share of target flow.
#[derive(Debug, Clone, PartialEq)]
pub struct DamSite {
    /// Natural (unregulated) daily flow at the dam's station.
    pub q_nat: Vec<f64>,
    /// Whole-day travel delay from the dam to the target station.
    pub lag: usize,
    /// Mean share of the target station's flow that passes the dam,
    /// in `[0, 1]`.
    pub share: f64,
}

/// Calendar + hydrology context shared by every transform application.
#[derive(Debug, Clone, PartialEq)]
pub struct ForcingCtx {
    /// Day-of-year (0-based) per row.
    pub doy: Vec<f64>,
    /// Month index (0–11) per row, for dam release schedules.
    pub month: Vec<usize>,
    /// One resolved site per `Transform::Dam`, in transform order.
    pub dams: Vec<DamSite>,
}

/// Columns that carry rain-driven wash-in signal (shifted by monsoon
/// timing): nutrients and transparency.
const WASHIN_COLS: [u8; 4] = [VN, VP, VSI, VSD];

/// Columns a drought or a dam rescales.
const DILUTED_COLS: [u8; 5] = [VN, VP, VSI, VCD, VSD];

/// Every forcing column: the `cols` argument of [`apply_transforms`] that
/// writes whole tables.
pub const ALL_COLUMNS: [bool; NUM_VARS] = [true; NUM_VARS];

/// Apply a transform chain in order, writing only the columns `v` with
/// `cols[v]` set; the others keep their values, and a transform that
/// would write none of the requested columns does no work. Every column
/// written gets exactly the value a whole-table application
/// ([`ALL_COLUMNS`]) gives it: no transform reads a column it does not
/// also write. `ctx.dams[i]` pairs with the i-th `Transform::Dam` of the
/// chain.
pub fn apply_transforms(
    rows: &mut [[f64; NUM_VARS]],
    transforms: &[Transform],
    ctx: &ForcingCtx,
    cols: &[bool; NUM_VARS],
) {
    let mut dam_idx = 0usize;
    for t in transforms {
        match t {
            Transform::MonsoonShift { days } => monsoon_shift(rows, &ctx.doy, *days, cols),
            Transform::Heatwave {
                start_day,
                length,
                amp,
            } => heatwave(rows, &ctx.doy, *start_day, *length, *amp, cols),
            Transform::Drought { scale } => drought(rows, *scale, cols),
            Transform::Dam(spec) => {
                dam(rows, spec, &ctx.dams[dam_idx], &ctx.month, cols);
                dam_idx += 1;
            }
        }
    }
}

/// Whether `cols` requests any column of `set`.
fn any_of(set: &[u8], cols: &[bool; NUM_VARS]) -> bool {
    set.iter().any(|&v| cols[v as usize])
}

/// Rotate the wash-in columns cyclically within each calendar year.
fn monsoon_shift(rows: &mut [[f64; NUM_VARS]], doy: &[f64], days: f64, cols: &[bool; NUM_VARS]) {
    let shift = days.round() as i64;
    if shift == 0 || !any_of(&WASHIN_COLS, cols) {
        return;
    }
    // Year segments: a new year starts where day-of-year resets to 0.
    let mut start = 0usize;
    let mut t = 1usize;
    while start < rows.len() {
        while t < rows.len() && doy[t] != 0.0 {
            t += 1;
        }
        let len = (t - start) as i64;
        let seg: Vec<[f64; NUM_VARS]> = rows[start..t].to_vec();
        for (off, row) in rows[start..t].iter_mut().enumerate() {
            // The pattern at day d now looks like the unshifted pattern
            // at day d - shift (monsoon arriving `shift` days later).
            let src = (off as i64 - shift).rem_euclid(len) as usize;
            for v in WASHIN_COLS.map(usize::from) {
                if cols[v] {
                    row[v] = seg[src][v];
                }
            }
        }
        start = t;
        t += 1;
    }
}

/// Additive smooth temperature bump each year; dissolved oxygen drops
/// with solubility (the generator's own −0.33 °C⁻¹ slope).
fn heatwave(
    rows: &mut [[f64; NUM_VARS]],
    doy: &[f64],
    start_day: f64,
    length: f64,
    amp: f64,
    cols: &[bool; NUM_VARS],
) {
    let (tmp, dox) = (cols[VTMP as usize], cols[VDO as usize]);
    if !tmp && !dox {
        return;
    }
    for (t, row) in rows.iter_mut().enumerate() {
        let d = doy[t] - start_day;
        if (0.0..length).contains(&d) {
            let bump = amp * (std::f64::consts::PI * d / length).sin();
            if tmp {
                row[VTMP as usize] = (row[VTMP as usize] + bump).min(38.0);
            }
            if dox {
                row[VDO as usize] = (row[VDO as usize] - 0.33 * bump).max(0.5);
            }
        }
    }
}

/// Water-supply scaling. The generated base couples concentrations to
/// dilution (`80 / flow`), so a drier river concentrates nutrients and
/// salts and runs clearer (less sediment wash-in).
fn drought(rows: &mut [[f64; NUM_VARS]], scale: f64, cols: &[bool; NUM_VARS]) {
    let conc = scale.powf(-0.5);
    let cond = scale.powf(-0.25);
    let clarity = scale.powf(-0.15);
    if !any_of(&DILUTED_COLS, cols) {
        return;
    }
    for row in rows.iter_mut() {
        dilute(row, cols, conc, || cond, || clarity);
    }
}

/// Rescale the diluted columns `cols` requests in one row: nutrients by
/// `conc`, conductivity by `cond()` and transparency by `clarity()`, each
/// held to its physical range. A closure runs only when its column is
/// requested.
fn dilute(
    row: &mut [f64; NUM_VARS],
    cols: &[bool; NUM_VARS],
    conc: f64,
    cond: impl FnOnce() -> f64,
    clarity: impl FnOnce() -> f64,
) {
    if cols[VN as usize] {
        row[VN as usize] = (row[VN as usize] * conc).max(0.02);
    }
    if cols[VP as usize] {
        row[VP as usize] = (row[VP as usize] * conc).max(0.001);
    }
    if cols[VSI as usize] {
        row[VSI as usize] = (row[VSI as usize] * conc).max(0.02);
    }
    if cols[VCD as usize] {
        row[VCD as usize] = (row[VCD as usize] * cond()).max(80.0);
    }
    if cols[VSD as usize] {
        row[VSD as usize] = (row[VSD as usize] * clarity()).clamp(0.1, 8.0);
    }
}

/// Run the storage / release-schedule / overflow recurrence over the
/// dam's natural inflow, then scale dilution-sensitive columns by the
/// concentration ratio the regulated flow implies at the target.
fn dam(
    rows: &mut [[f64; NUM_VARS]],
    spec: &DamSpec,
    site: &DamSite,
    month: &[usize],
    cols: &[bool; NUM_VARS],
) {
    let days = rows.len().min(site.q_nat.len());
    if days == 0 || !any_of(&DILUTED_COLS, cols) {
        return;
    }
    let mean_q = site.q_nat[..days].iter().sum::<f64>() / days as f64;
    // Regulated outflow series at the dam.
    let mut q_reg = vec![0.0f64; days];
    let mut storage = 0.5 * spec.capacity;
    for t in 0..days {
        let inflow = site.q_nat[t];
        let target = spec.release[month[t]] * mean_q;
        let release = target.min(storage + inflow);
        storage += inflow - release;
        let spill = if storage > spec.capacity {
            spec.overflow * (storage - spec.capacity)
        } else {
            0.0
        };
        storage -= spill;
        q_reg[t] = release + spill;
    }
    // Concentration response at the target: target flow changes by
    // `1 + share·(ratio − 1)` where ratio is the dam's outflow over its
    // natural flow, lagged by the travel delay; concentrations scale
    // inversely.
    for (t, row) in rows.iter_mut().enumerate().take(days) {
        let lagged = t.saturating_sub(site.lag);
        let nat = site.q_nat[lagged].max(1e-6);
        let ratio = (q_reg[lagged] / nat).clamp(0.2, 5.0);
        let m = (1.0 / (1.0 + site.share * (ratio - 1.0))).clamp(0.25, 4.0);
        dilute(row, cols, m, || m.sqrt(), || m.powf(-0.25));
    }
}

/// Salt folded into the seed for per-variant jitter draws.
const SWEEP_SALT: u64 = 0x7377_6565_7020_7631; // "sweep v1"

/// The transform chain of sweep variant `variant`.
///
/// Variant 0 is the spec's own chain, verbatim. Every other variant
/// jitters each transform parameter deterministically from
/// `(seed, variant)` — multiplicatively by `±spread` for scale-like
/// parameters, additively (±`spread`·30 days) for timing — then clamps
/// back into the spec-valid range. Independent of chunking or execution
/// order: variant `i` is the same chain no matter how the sweep is
/// batched.
pub fn variant_transforms(
    transforms: &[Transform],
    seed: u64,
    spread: f64,
    variant: u32,
) -> Vec<Transform> {
    if variant == 0 {
        return transforms.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(
        seed ^ SWEEP_SALT ^ (variant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let mul = |rng: &mut StdRng, v: f64, lo: f64, hi: f64| -> f64 {
        let u: f64 = rng.gen_range(-1.0..1.0);
        (v * (1.0 + spread * u)).clamp(lo, hi)
    };
    transforms
        .iter()
        .map(|t| match t {
            Transform::MonsoonShift { days } => {
                let u: f64 = rng.gen_range(-1.0..1.0);
                Transform::MonsoonShift {
                    days: (days + spread * 30.0 * u).clamp(-60.0, 60.0),
                }
            }
            Transform::Heatwave {
                start_day,
                length,
                amp,
            } => {
                let u: f64 = rng.gen_range(-1.0..1.0);
                let start_day = (start_day + spread * 30.0 * u).clamp(0.0, 365.0);
                let length = mul(&mut rng, *length, 1.0, 120.0);
                let amp = mul(&mut rng, *amp, 0.0, 10.0);
                Transform::Heatwave {
                    start_day,
                    length,
                    amp,
                }
            }
            Transform::Drought { scale } => Transform::Drought {
                scale: mul(&mut rng, *scale, 0.2, 2.0),
            },
            Transform::Dam(d) => {
                let capacity = mul(&mut rng, d.capacity, 100.0, 1e7);
                let release = d
                    .release
                    .iter()
                    .map(|r| mul(&mut rng, *r, 0.05, 2.0))
                    .collect();
                let overflow = mul(&mut rng, d.overflow, 0.0, 1.0);
                Transform::Dam(DamSpec {
                    station: d.station.clone(),
                    capacity,
                    release,
                    overflow,
                })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_rows(days: usize) -> Vec<[f64; NUM_VARS]> {
        (0..days)
            .map(|t| {
                let mut r = [1.0; NUM_VARS];
                r[VTMP as usize] = 20.0;
                r[VDO as usize] = 8.0;
                r[VN as usize] = 2.0 + (t as f64 * 0.1).sin();
                r[VCD as usize] = 300.0;
                r[VSD as usize] = 2.0;
                r
            })
            .collect()
    }

    fn ctx(days: usize) -> ForcingCtx {
        // One synthetic 365-day calendar repeated.
        let doy: Vec<f64> = (0..days).map(|t| (t % 365) as f64).collect();
        let month: Vec<usize> = doy.iter().map(|d| (*d as usize / 31).min(11)).collect();
        ForcingCtx {
            doy,
            month,
            dams: vec![],
        }
    }

    #[test]
    fn heatwave_bumps_window_only() {
        let mut rows = flat_rows(365);
        let c = ctx(365);
        apply_transforms(
            &mut rows,
            &[Transform::Heatwave {
                start_day: 100.0,
                length: 10.0,
                amp: 4.0,
            }],
            &c,
            &ALL_COLUMNS,
        );
        assert_eq!(rows[99][VTMP as usize], 20.0);
        assert!(rows[105][VTMP as usize] > 23.0);
        assert!(rows[105][VDO as usize] < 8.0);
        assert_eq!(rows[111][VTMP as usize], 20.0);
    }

    #[test]
    fn monsoon_shift_rotates_washin_within_year() {
        let mut rows = flat_rows(730);
        let base = rows.clone();
        let c = ctx(730);
        apply_transforms(
            &mut rows,
            &[Transform::MonsoonShift { days: 20.0 }],
            &c,
            &ALL_COLUMNS,
        );
        // Wash-in columns rotated: day 30 now carries day 10's value.
        assert_eq!(rows[30][VN as usize], base[10][VN as usize]);
        // Second year rotates within itself.
        assert_eq!(rows[365 + 30][VN as usize], base[365 + 10][VN as usize]);
        // Non-wash-in columns untouched.
        assert_eq!(rows[30][VTMP as usize], base[30][VTMP as usize]);
    }

    #[test]
    fn drought_concentrates() {
        let mut rows = flat_rows(10);
        let base = rows.clone();
        let c = ctx(10);
        apply_transforms(
            &mut rows,
            &[Transform::Drought { scale: 0.5 }],
            &c,
            &ALL_COLUMNS,
        );
        assert!(rows[3][VN as usize] > base[3][VN as usize]);
        assert!(rows[3][VCD as usize] > base[3][VCD as usize]);
        assert!(rows[3][VSD as usize] > base[3][VSD as usize]);
    }

    #[test]
    fn dam_smooths_and_scales() {
        let days = 200;
        let mut rows = flat_rows(days);
        let base = rows.clone();
        let mut c = ctx(days);
        // Strongly seasonal natural flow.
        let q_nat: Vec<f64> = (0..days)
            .map(|t| 60.0 + 50.0 * (t as f64 / 30.0).sin())
            .collect();
        c.dams.push(DamSite {
            q_nat,
            lag: 2,
            share: 0.8,
        });
        let spec = DamSpec {
            station: "n04".into(),
            capacity: 5000.0,
            release: vec![0.5; 12],
            overflow: 0.75,
        };
        apply_transforms(&mut rows, &[Transform::Dam(spec)], &c, &ALL_COLUMNS);
        // Regulated low release concentrates nutrients on high-flow days
        // and the table actually changed.
        assert_ne!(rows, base);
        for row in &rows {
            assert!(row[VN as usize] >= 0.02);
            assert!(row[VSD as usize] <= 8.0);
        }
    }

    #[test]
    fn transforms_compose_in_order() {
        let c = ctx(365);
        let chain = [
            Transform::Drought { scale: 0.6 },
            Transform::Heatwave {
                start_day: 150.0,
                length: 20.0,
                amp: 3.0,
            },
        ];
        let mut ab = flat_rows(365);
        apply_transforms(&mut ab, &chain, &c, &ALL_COLUMNS);
        let mut step = flat_rows(365);
        apply_transforms(&mut step, &chain[..1], &c, &ALL_COLUMNS);
        apply_transforms(&mut step, &chain[1..], &c, &ALL_COLUMNS);
        assert_eq!(ab, step, "chain equals sequential application");
    }

    #[test]
    fn variant_zero_is_base_and_variants_deterministic() {
        let base = vec![
            Transform::Drought { scale: 0.7 },
            Transform::MonsoonShift { days: 10.0 },
        ];
        assert_eq!(variant_transforms(&base, 9, 0.25, 0), base);
        let a = variant_transforms(&base, 9, 0.25, 3);
        let b = variant_transforms(&base, 9, 0.25, 3);
        assert_eq!(a, b);
        assert_ne!(a, base);
        assert_ne!(a, variant_transforms(&base, 9, 0.25, 4));
        // Jitter stays in the valid range.
        for t in &a {
            if let Transform::Drought { scale } = t {
                assert!((0.2..=2.0).contains(scale));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn column_sets_write_exactly_the_requested_columns(
            mask in 0u16..1 << NUM_VARS,
            rotate in 0usize..4,
            days in -60.0f64..60.0,
            (start_day, length, amp) in (0.0f64..365.0, 1.0f64..120.0, 0.0f64..10.0),
            scale in 0.2f64..2.0,
            (capacity, release, overflow) in (100.0f64..1e5, 0.05f64..2.0, 0.0f64..1.0),
        ) {
            // Every transform kind in a rotated order; a column the set
            // requests must come out exactly as a whole-table application
            // writes it, and any other column must keep its base value.
            let n = 400;
            let base = flat_rows(n);
            let mut c = ctx(n);
            c.dams.push(DamSite {
                q_nat: (0..n).map(|t| 60.0 + 50.0 * (t as f64 / 30.0).sin()).collect(),
                lag: 3,
                share: 0.7,
            });
            let mut chain = vec![
                Transform::MonsoonShift { days },
                Transform::Heatwave { start_day, length, amp },
                Transform::Drought { scale },
                Transform::Dam(DamSpec {
                    station: "n01".into(),
                    capacity,
                    release: vec![release; 12],
                    overflow,
                }),
            ];
            chain.rotate_left(rotate);
            let cols: [bool; NUM_VARS] = std::array::from_fn(|v| mask & (1 << v) != 0);
            let mut full = base.clone();
            apply_transforms(&mut full, &chain, &c, &ALL_COLUMNS);
            let mut part = base.clone();
            apply_transforms(&mut part, &chain, &c, &cols);
            for t in 0..n {
                for v in 0..NUM_VARS {
                    let want = if cols[v] { full[t][v] } else { base[t][v] };
                    proptest::prop_assert!(
                        part[t][v].to_bits() == want.to_bits(),
                        "row {t} column {v} (requested: {}): {} vs {want}",
                        cols[v],
                        part[t][v]
                    );
                }
            }
        }
    }
}
