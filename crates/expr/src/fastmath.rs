//! Fast scalar transcendentals for the relaxed-fidelity SIMD tier.
//!
//! The protected operators in [`crate::eval`] call libm's `exp`/`ln`,
//! which are correctly rounded but cost tens of nanoseconds each and
//! cannot be vectorized. This module provides Cephes-style rational
//! approximations (~1–2 ulp over the protected domains) whose operation
//! sequence is *exactly* mirrored, FMA for FMA, by the `__m256d` kernels
//! in [`crate::simd`] — so a value computed by the scalar fallback of a
//! relaxed-tier program is bit-identical to the same lane of the
//! vectorized sweep, and a trajectory's fidelity does not depend on
//! whether its rows happened to land in a full or a ragged chunk.
//!
//! These functions are **not** bit-identical to libm, which is why every
//! call site is gated behind [`crate::vm::Fidelity::RelaxedSimd`]. They
//! do preserve the *protected* contract shapes: [`fast_exp`] clamps its
//! argument to ±50 like `protected_exp`, [`fast_log`] takes
//! `ln(max(|x|, 1e-12))` like `protected_log`, and [`fast_pow`] composes
//! the two like `protected_pow`. NaN propagates (`NaN in → NaN out`).
//!
//! Accuracy is pinned by tests against libm at a 1e-13 relative bound
//! over the protected domains; the river state envelope (`lint`'s
//! `IntervalEnv::river`) lives many orders of magnitude inside them.

use crate::eval::{EXP_CLAMP, LOG_EPS};

/// log2(e), for the range reduction `exp(x) = 2^n · exp(r)`.
pub(crate) const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High/low split of ln(2) (Cephes `C1`/`C2`): `r = x − n·C1 − n·C2`
/// keeps the reduction exact to well below the polynomial error.
pub(crate) const EXP_C1: f64 = 6.931_457_519_531_25e-1;
pub(crate) const EXP_C2: f64 = 1.428_606_820_309_417_2e-6;
/// Cephes `exp` rational coefficients: `exp(r) ≈ 1 + 2·r·P(r²)/(Q(r²) − r·P(r²))`.
pub(crate) const EXP_P: [f64; 3] = [
    1.261_771_930_748_105_9e-4,
    3.029_944_077_074_419_6e-2,
    9.999_999_999_999_999e-1,
];
pub(crate) const EXP_Q: [f64; 4] = [
    3.001_985_051_386_644_6e-6,
    2.524_483_403_496_841e-3,
    2.272_655_482_081_550_3e-1,
    2.000_000_000_000_000_4,
];

/// Cephes `log` rational coefficients over the mantissa m ∈ [√½, √2):
/// `ln(1+z) ≈ z + z³·P(z)/Q(z) − z²/2` with `Q` monic of degree 5.
/// Coefficients are kept digit-for-digit as Cephes publishes them.
#[allow(clippy::excessive_precision)]
pub(crate) const LOG_P: [f64; 6] = [
    1.018_756_638_045_809_3e-4,
    4.974_949_949_767_47e-1,
    4.705_791_198_788_817_5,
    1.449_892_253_416_109_3e1,
    1.793_686_785_078_198_2e1,
    7.708_387_337_558_854,
];
pub(crate) const LOG_Q: [f64; 5] = [
    1.128_735_871_891_674_5e1,
    4.522_791_458_375_322e1,
    8.298_752_669_127_766e1,
    7.115_447_506_185_639e1,
    2.312_516_201_267_653_4e1,
];
/// High/low split of ln(2) used on the exponent contribution.
pub(crate) const LOG_LN2_HI: f64 = 0.693_359_375;
pub(crate) const LOG_LN2_LO: f64 = -2.121_944_400_546_905_8e-4;
pub(crate) const SQRT_HALF: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Fast `protected_exp`: clamp to ±[`EXP_CLAMP`], then a Cephes rational
/// approximation. Mirrors `crate::simd::vexp` operation-for-operation.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    // Same clamp order as the vector kernel: min with +50, max with -50
    // (kept as explicit min/max, not `clamp`, to mirror `vexp` op-for-op).
    #[allow(clippy::manual_clamp)]
    let x = x.min(EXP_CLAMP).max(-EXP_CLAMP);
    // n = ⌊x·log2(e) + ½⌋ — Cephes' half-up rounding, matching
    // `floor(fma(x, LOG2E, 0.5))` in the vector kernel.
    let n = x.mul_add(LOG2E, 0.5).floor();
    // r = x − n·ln2, in two exact pieces.
    let r = n.mul_add(-EXP_C1, x);
    let r = n.mul_add(-EXP_C2, r);
    let rr = r * r;
    let p = EXP_P[0].mul_add(rr, EXP_P[1]).mul_add(rr, EXP_P[2]) * r;
    let q = EXP_Q[0]
        .mul_add(rr, EXP_Q[1])
        .mul_add(rr, EXP_Q[2])
        .mul_add(rr, EXP_Q[3]);
    let e = p / (q - p);
    let y = e.mul_add(2.0, 1.0);
    // 2^n by exponent-field construction; |n| ≤ 73 keeps it normal.
    let scale = f64::from_bits(((n as i64 + 1023) as u64) << 52);
    y * scale
}

/// Fast `protected_log`: `ln(max(|x|, 1e-12))` via frexp-style reduction
/// and a Cephes rational approximation. Mirrors `crate::simd::vlog`.
#[inline]
pub fn fast_log(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let x = x.abs().max(LOG_EPS);
    if x.is_infinite() {
        return f64::INFINITY;
    }
    // frexp: x = m · 2^e with m ∈ [0.5, 1). x ≥ 1e-12 ⇒ always normal.
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1022;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1022u64 << 52));
    if m < SQRT_HALF {
        e -= 1;
        m = m.mul_add(2.0, -1.0);
    } else {
        m -= 1.0;
    }
    let z = m * m;
    let p = LOG_P[0]
        .mul_add(m, LOG_P[1])
        .mul_add(m, LOG_P[2])
        .mul_add(m, LOG_P[3])
        .mul_add(m, LOG_P[4])
        .mul_add(m, LOG_P[5]);
    let q = (m + LOG_Q[0])
        .mul_add(m, LOG_Q[1])
        .mul_add(m, LOG_Q[2])
        .mul_add(m, LOG_Q[3])
        .mul_add(m, LOG_Q[4]);
    let ef = e as f64;
    let mut y = m * z * (p / q);
    y = ef.mul_add(LOG_LN2_LO, y);
    y = z.mul_add(-0.5, y);
    ef.mul_add(LOG_LN2_HI, m + y)
}

/// Fast `protected_pow`: `fast_exp(y · fast_log(x))`, the same
/// composition `protected_pow` uses over its protected parts.
#[inline]
pub fn fast_pow(x: f64, y: f64) -> f64 {
    fast_exp(y * fast_log(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{protected_exp, protected_log, protected_pow};

    fn rel_err(got: f64, want: f64) -> f64 {
        if got == want {
            return 0.0;
        }
        (got - want).abs() / want.abs().max(1e-300)
    }

    #[test]
    fn fast_exp_tracks_protected_exp() {
        let mut worst = 0.0f64;
        // Sweep the whole protected domain including the clamp edges.
        for i in -6000..=6000 {
            let x = i as f64 * 0.01;
            let (got, want) = (fast_exp(x), protected_exp(x));
            worst = worst.max(rel_err(got, want));
        }
        assert!(worst < 1e-13, "worst rel err {worst:e}");
        assert_eq!(fast_exp(1e9), protected_exp(1e9), "clamp high");
        assert_eq!(fast_exp(-1e9), protected_exp(-1e9), "clamp low");
        assert!(fast_exp(f64::NAN).is_nan());
    }

    #[test]
    fn fast_log_tracks_protected_log() {
        let mut worst = 0.0f64;
        for i in 1..=4000 {
            for x in [i as f64 * 1e-14, i as f64 * 0.01, i as f64 * 1e3] {
                let (got, want) = (fast_log(x), protected_log(x));
                worst = worst.max(rel_err(got, want));
                // Protected: |x| under the floor too.
                let (got, want) = (fast_log(-x), protected_log(-x));
                worst = worst.max(rel_err(got, want));
            }
        }
        assert!(worst < 1e-13, "worst rel err {worst:e}");
        assert_eq!(fast_log(0.0), protected_log(0.0), "eps floor");
        assert_eq!(fast_log(f64::INFINITY), f64::INFINITY);
        assert!(fast_log(f64::NAN).is_nan());
    }

    #[test]
    fn fast_pow_tracks_protected_pow() {
        let mut worst = 0.0f64;
        for x in [1e-9, 0.03, 0.8, 1.0, 2.5, 40.0, 900.0, -3.0] {
            for y in [-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.7] {
                let (got, want) = (fast_pow(x, y), protected_pow(x, y));
                worst = worst.max(rel_err(got, want));
            }
        }
        assert!(worst < 1e-12, "worst rel err {worst:e}");
    }
}
