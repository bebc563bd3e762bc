//! Explicit SoA-SIMD kernels for the columnar lane interpreters.
//!
//! Behind the `simd` cargo feature (x86-64 only, AVX2+FMA verified at
//! runtime by [`active`]), the [`LANES`]-wide stripe loops of
//! `RegProgram::run_lanes` / `run_lanes_one_row` dispatch to the
//! `__m256d` kernels here instead of the scalar auto-vectorization
//! candidates. Two kinds of kernel live side by side:
//!
//! * **Bit-exact kernels** — add/sub/mul, the protected division
//!   (mask-and-blend of the `|y| < ε → 0` guard), `f64::min`/`max`
//!   emulation (one extra blend to reproduce IEEE `minNum` NaN
//!   semantics), sign flip, and the three fused triples (multiply and
//!   add/sub rounded separately — `_mm256_mul_pd` then `_mm256_add_pd`,
//!   never an FMA). Per-lane these produce the same bits as the scalar
//!   protected operators on every input, so *every* split-family tier
//!   uses them when the feature is on; the tier-equality contract is
//!   untouched.
//!
//! * **Relaxed kernels** — vectorized `exp`/`log`/`pow`
//!   ([`crate::fastmath`]'s Cephes rationals, FMA-for-FMA identical per
//!   lane to the scalar versions, but *not* to libm). Only the `simd`
//!   tier ([`Fidelity::RelaxedSimd`](crate::vm::Fidelity)) may select
//!   these; the registry and `bench_vm --validate` both check the
//!   policy.
//!
//! Every kernel operates on full 32-lane stripes (`8 × __m256d`) of the
//! flat lane register file; ragged tail chunks (`m < LANES`) fall back
//! to the scalar kernels at the call site. Callers guarantee — and
//! debug-assert here — that `off + LANES <= regs.len()` for every
//! stripe offset, which holds because offsets are `r * LANES` for
//! registers `r < n_regs` proved by `RegProgram::validate()`
//! (re-proved as `lint::absint` obligations, site class "simd
//! kernels").

#![allow(clippy::missing_safety_doc)] // pub(crate) kernels; contract in module docs

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) use imp::*;

/// Whether the AVX2+FMA vector kernels are live in this build on this
/// machine — the public probe behind [`crate::Tier::fidelity`] and the
/// bench's `"simd_active"` report field.
pub fn active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        imp::active()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        fallback::active()
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod imp {
    use crate::eval::{DIV_EPS, EXP_CLAMP, LOG_EPS};
    use crate::fastmath::{
        EXP_C1, EXP_C2, EXP_P, EXP_Q, LOG2E, LOG_LN2_HI, LOG_LN2_LO, LOG_P, LOG_Q, SQRT_HALF,
    };
    use crate::vm::LANES;
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// AVX2 + FMA available on this machine (checked once, cached).
    pub fn active() -> bool {
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }

    // SAFETY (shared by every kernel in this module): callers hold a
    // `&mut [f64]` lane register file and pass stripe offsets
    // `r * LANES` for registers `r < n_regs` validated at program
    // construction, against a buffer asserted `n_regs * LANES` long —
    // so every `offset + i + 4 <= regs.len()` load/store below is in
    // bounds (debug-asserted per kernel). Unaligned load/store
    // intrinsics are used throughout. The `avx2,fma` target features
    // are guaranteed by the `active()` gate at every call site.
    macro_rules! kern2 {
        ($rr:ident, $cl:ident, $cr:ident, $op:ident) => {
            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn $rr(regs: &mut [f64], d: usize, a: usize, b: usize) {
                debug_assert!(
                    d + LANES <= regs.len() && a + LANES <= regs.len() && b + LANES <= regs.len()
                );
                let p = regs.as_mut_ptr();
                for i in (0..LANES).step_by(4) {
                    // SAFETY: see the shared kernel argument above.
                    unsafe {
                        let x = _mm256_loadu_pd(p.add(a + i));
                        let y = _mm256_loadu_pd(p.add(b + i));
                        _mm256_storeu_pd(p.add(d + i), $op(x, y));
                    }
                }
            }

            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn $cl(regs: &mut [f64], d: usize, c: f64, b: usize) {
                debug_assert!(d + LANES <= regs.len() && b + LANES <= regs.len());
                let p = regs.as_mut_ptr();
                let x = _mm256_set1_pd(c);
                for i in (0..LANES).step_by(4) {
                    // SAFETY: see the shared kernel argument above.
                    unsafe {
                        let y = _mm256_loadu_pd(p.add(b + i));
                        _mm256_storeu_pd(p.add(d + i), $op(x, y));
                    }
                }
            }

            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn $cr(regs: &mut [f64], d: usize, a: usize, c: f64) {
                debug_assert!(d + LANES <= regs.len() && a + LANES <= regs.len());
                let p = regs.as_mut_ptr();
                let y = _mm256_set1_pd(c);
                for i in (0..LANES).step_by(4) {
                    // SAFETY: see the shared kernel argument above.
                    unsafe {
                        let x = _mm256_loadu_pd(p.add(a + i));
                        _mm256_storeu_pd(p.add(d + i), $op(x, y));
                    }
                }
            }
        };
    }

    // SAFETY: same shared argument as `kern2` above for the register
    // stripe; the gathered operand is a caller-owned `[f64; LANES]`
    // stack array, so its `i + 4 <= LANES` loads are in bounds by the
    // loop shape alone.
    macro_rules! kern2v {
        ($vl:ident, $vr:ident, $op:ident) => {
            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn $vl(regs: &mut [f64], d: usize, v: &[f64; LANES], b: usize) {
                debug_assert!(d + LANES <= regs.len() && b + LANES <= regs.len());
                let p = regs.as_mut_ptr();
                for i in (0..LANES).step_by(4) {
                    // SAFETY: see the shared kernel argument above.
                    unsafe {
                        let x = _mm256_loadu_pd(v.as_ptr().add(i));
                        let y = _mm256_loadu_pd(p.add(b + i));
                        _mm256_storeu_pd(p.add(d + i), $op(x, y));
                    }
                }
            }

            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn $vr(regs: &mut [f64], d: usize, a: usize, v: &[f64; LANES]) {
                debug_assert!(d + LANES <= regs.len() && a + LANES <= regs.len());
                let p = regs.as_mut_ptr();
                for i in (0..LANES).step_by(4) {
                    // SAFETY: see the shared kernel argument above.
                    unsafe {
                        let x = _mm256_loadu_pd(p.add(a + i));
                        let y = _mm256_loadu_pd(v.as_ptr().add(i));
                        _mm256_storeu_pd(p.add(d + i), $op(x, y));
                    }
                }
            }
        };
    }

    // SAFETY: same shared argument as `kern2` above (one input stripe).
    macro_rules! kern1 {
        ($name:ident, $op:ident) => {
            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn $name(regs: &mut [f64], d: usize, a: usize) {
                debug_assert!(d + LANES <= regs.len() && a + LANES <= regs.len());
                let p = regs.as_mut_ptr();
                for i in (0..LANES).step_by(4) {
                    // SAFETY: see the shared kernel argument above.
                    unsafe {
                        let x = _mm256_loadu_pd(p.add(a + i));
                        _mm256_storeu_pd(p.add(d + i), $op(x));
                    }
                }
            }
        };
    }

    // SAFETY: same shared argument as `kern2` above (three input stripes).
    macro_rules! kern3 {
        ($name:ident, $op:ident) => {
            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn $name(regs: &mut [f64], d: usize, a: usize, b: usize, c: usize) {
                debug_assert!(
                    d + LANES <= regs.len()
                        && a + LANES <= regs.len()
                        && b + LANES <= regs.len()
                        && c + LANES <= regs.len()
                );
                let p = regs.as_mut_ptr();
                for i in (0..LANES).step_by(4) {
                    // SAFETY: see the shared kernel argument above.
                    unsafe {
                        let x = _mm256_loadu_pd(p.add(a + i));
                        let y = _mm256_loadu_pd(p.add(b + i));
                        let z = _mm256_loadu_pd(p.add(c + i));
                        _mm256_storeu_pd(p.add(d + i), $op(x, y, z));
                    }
                }
            }
        };
    }

    // ---- element ops (4 lanes at a time) --------------------------------

    // SAFETY (all element helpers): pure register arithmetic, no memory
    // access; `avx2,fma` guaranteed transitively by the calling kernel.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_add(x: __m256d, y: __m256d) -> __m256d {
        _mm256_add_pd(x, y)
    }

    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_sub(x: __m256d, y: __m256d) -> __m256d {
        _mm256_sub_pd(x, y)
    }

    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_mul(x: __m256d, y: __m256d) -> __m256d {
        _mm256_mul_pd(x, y)
    }

    /// Protected division: `|y| < ε → 0`, bit-exact vs `protected_div`.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_div_p(x: __m256d, y: __m256d) -> __m256d {
        let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
        // NLT + unordered: the guard fires only when `|y| < ε` compares
        // *ordered* true — a NaN divisor falls through to the division
        // and propagates, exactly like the scalar `y.abs() < ε` branch.
        let ok = _mm256_cmp_pd::<_CMP_NLT_UQ>(_mm256_and_pd(y, absmask), _mm256_set1_pd(DIV_EPS));
        // Quotients in the guarded lanes are discarded by the blend
        // (SIMD fp exceptions are masked; no traps).
        _mm256_and_pd(ok, _mm256_div_pd(x, y))
    }

    /// `f64::min` (IEEE minNum): `vminpd` returns the second operand
    /// when either is NaN, so patch the `y is NaN → x` half back in.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_min_p(x: __m256d, y: __m256d) -> __m256d {
        let m = _mm256_min_pd(x, y);
        let y_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(y, y);
        _mm256_blendv_pd(m, x, y_nan)
    }

    /// `f64::max` (IEEE maxNum); see [`e_min_p`].
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_max_p(x: __m256d, y: __m256d) -> __m256d {
        let m = _mm256_max_pd(x, y);
        let y_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(y, y);
        _mm256_blendv_pd(m, x, y_nan)
    }

    /// Sign flip — identical to scalar negation on every f64.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_neg(x: __m256d) -> __m256d {
        _mm256_xor_pd(x, _mm256_set1_pd(-0.0))
    }

    /// Two separate roundings — never contracted to an FMA.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_mul_sub(x: __m256d, y: __m256d, z: __m256d) -> __m256d {
        _mm256_sub_pd(_mm256_mul_pd(x, y), z)
    }

    /// Vector `fast_exp` — operation-for-operation the scalar
    /// [`crate::fastmath::fast_exp`], so each lane is bit-identical to
    /// the scalar fallback. Relaxed fidelity only.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_exp(x0: __m256d) -> __m256d {
        let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x0, x0);
        let x = _mm256_max_pd(
            _mm256_min_pd(x0, _mm256_set1_pd(EXP_CLAMP)),
            _mm256_set1_pd(-EXP_CLAMP),
        );
        let n = _mm256_floor_pd(_mm256_fmadd_pd(
            x,
            _mm256_set1_pd(LOG2E),
            _mm256_set1_pd(0.5),
        ));
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(EXP_C1), x);
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(EXP_C2), r);
        let rr = _mm256_mul_pd(r, r);
        let p = _mm256_fmadd_pd(_mm256_set1_pd(EXP_P[0]), rr, _mm256_set1_pd(EXP_P[1]));
        let p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(EXP_P[2]));
        let p = _mm256_mul_pd(p, r);
        let q = _mm256_fmadd_pd(_mm256_set1_pd(EXP_Q[0]), rr, _mm256_set1_pd(EXP_Q[1]));
        let q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(EXP_Q[2]));
        let q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(EXP_Q[3]));
        let e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
        let y = _mm256_fmadd_pd(e, _mm256_set1_pd(2.0), _mm256_set1_pd(1.0));
        // 2^n via the exponent field; |n| ≤ 73 keeps it normal.
        let ni = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
        let bits = _mm256_slli_epi64::<52>(_mm256_add_epi64(ni, _mm256_set1_epi64x(1023)));
        let y = _mm256_mul_pd(y, _mm256_castsi256_pd(bits));
        _mm256_blendv_pd(y, x0, nan)
    }

    /// Vector `fast_log`; see [`e_exp`] for the mirroring contract.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_log(x0: __m256d) -> __m256d {
        let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x0, x0);
        let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
        let x = _mm256_max_pd(_mm256_and_pd(x0, absmask), _mm256_set1_pd(LOG_EPS));
        let inf = _mm256_cmp_pd::<_CMP_EQ_OQ>(x, _mm256_set1_pd(f64::INFINITY));
        let bits = _mm256_castpd_si256(x);
        // Biased exponent as f64 via the 2^52 magic-number trick.
        let eb = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(0x7ff));
        let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        let ef = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(eb, magic)),
            _mm256_castsi256_pd(magic),
        );
        let ef = _mm256_sub_pd(ef, _mm256_set1_pd(1022.0));
        let mant = _mm256_set1_epi64x(0x000f_ffff_ffff_ffff);
        let m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(bits, mant),
            _mm256_set1_epi64x(0x3fe0_0000_0000_0000),
        ));
        let small = _mm256_cmp_pd::<_CMP_LT_OQ>(m, _mm256_set1_pd(SQRT_HALF));
        let ef = _mm256_sub_pd(ef, _mm256_and_pd(small, _mm256_set1_pd(1.0)));
        let m = _mm256_blendv_pd(
            _mm256_sub_pd(m, _mm256_set1_pd(1.0)),
            _mm256_fmadd_pd(m, _mm256_set1_pd(2.0), _mm256_set1_pd(-1.0)),
            small,
        );
        let z = _mm256_mul_pd(m, m);
        let p = _mm256_fmadd_pd(_mm256_set1_pd(LOG_P[0]), m, _mm256_set1_pd(LOG_P[1]));
        let p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(LOG_P[2]));
        let p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(LOG_P[3]));
        let p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(LOG_P[4]));
        let p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(LOG_P[5]));
        let q = _mm256_add_pd(m, _mm256_set1_pd(LOG_Q[0]));
        let q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(LOG_Q[1]));
        let q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(LOG_Q[2]));
        let q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(LOG_Q[3]));
        let q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(LOG_Q[4]));
        let y = _mm256_mul_pd(_mm256_mul_pd(m, z), _mm256_div_pd(p, q));
        let y = _mm256_fmadd_pd(ef, _mm256_set1_pd(LOG_LN2_LO), y);
        let y = _mm256_fnmadd_pd(z, _mm256_set1_pd(0.5), y);
        let res = _mm256_fmadd_pd(ef, _mm256_set1_pd(LOG_LN2_HI), _mm256_add_pd(m, y));
        let res = _mm256_blendv_pd(res, _mm256_set1_pd(f64::INFINITY), inf);
        _mm256_blendv_pd(res, x0, nan)
    }

    /// Vector `fast_pow`: `exp(y · log(x))`, relaxed fidelity only.
    // SAFETY: `unsafe` only for `target_feature`; register-only math
    // (no memory access) — see the element-helpers note above.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn e_pow(x: __m256d, y: __m256d) -> __m256d {
        // SAFETY: register-only helpers under the same target features.
        unsafe { e_exp(_mm256_mul_pd(y, e_log(x))) }
    }

    // ---- stripe kernels --------------------------------------------------

    kern2!(add_rr, add_cl, add_cr, e_add);
    kern2!(sub_rr, sub_cl, sub_cr, e_sub);
    kern2!(mul_rr, mul_cl, mul_cr, e_mul);
    kern2!(div_rr, div_cl, div_cr, e_div_p);
    kern2!(min_rr, min_cl, min_cr, e_min_p);
    kern2!(max_rr, max_cl, max_cr, e_max_p);
    kern2!(pow_rr, pow_cl, pow_cr, e_pow);
    // Gathered-operand variants for the `VarBinL`/`VarBinR` row sweep,
    // where the variable side differs per lane (consecutive rows) and is
    // gathered into a stack array at the call site. Only the protected
    // division (whose guard branch defeats auto-vectorization) and the
    // relaxed pow (a function call per lane otherwise) pay for explicit
    // kernels; the remaining ops auto-vectorize fine as scalar loops.
    kern2v!(div_vl, div_vr, e_div_p);
    kern2v!(pow_vl, pow_vr, e_pow);
    kern1!(neg_k, e_neg);
    kern1!(exp_k, e_exp);
    kern1!(log_k, e_log);
    kern3!(mul_sub_k, e_mul_sub);

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::eval::{protected_div, protected_log};
        use crate::fastmath::{fast_exp, fast_log, fast_pow};

        fn feq(a: f64, b: f64) -> bool {
            (a.is_nan() && b.is_nan()) || a == b
        }

        /// Drive a 1-in 1-out kernel over a 2-stripe file.
        fn run1(k: unsafe fn(&mut [f64], usize, usize), input: &[f64; LANES]) -> Vec<f64> {
            let mut regs = vec![0.0; 2 * LANES];
            regs[LANES..].copy_from_slice(input);
            assert!(active(), "test host must have avx2+fma");
            // SAFETY: stripes 0 and 1 of a 2-stripe buffer; avx2+fma
            // asserted above.
            unsafe { k(&mut regs, 0, LANES) };
            regs[..LANES].to_vec()
        }

        #[test]
        fn vector_exp_log_bit_match_scalar_fastmath() {
            let mut xs = [0.0; LANES];
            for (i, x) in xs.iter_mut().enumerate() {
                *x = (i as f64 - 15.0) * 3.7 + 0.123;
            }
            xs[0] = f64::NAN;
            xs[1] = f64::INFINITY;
            xs[2] = -1e300;
            xs[3] = 0.0;
            xs[4] = 1e-13;
            let got = run1(exp_k, &xs);
            for (l, &x) in xs.iter().enumerate() {
                assert!(feq(got[l], fast_exp(x)), "exp lane {l}: x={x}");
            }
            let got = run1(log_k, &xs);
            for (l, &x) in xs.iter().enumerate() {
                assert!(feq(got[l], fast_log(x)), "log lane {l}: x={x}");
            }
        }

        #[test]
        fn bit_exact_kernels_match_protected_ops() {
            let mut a = [0.0; LANES];
            let mut b = [0.0; LANES];
            for i in 0..LANES {
                a[i] = (i as f64 * 1.37 - 20.0) * 1e3;
                b[i] = (i as f64 * 0.73 - 10.0) * 1e-8;
            }
            a[0] = f64::NAN;
            b[1] = f64::NAN;
            b[2] = 0.0;
            b[3] = 1e-13;
            a[4] = f64::INFINITY;
            b[5] = f64::NEG_INFINITY;
            let mut regs = vec![0.0; 3 * LANES];
            regs[LANES..2 * LANES].copy_from_slice(&a);
            regs[2 * LANES..].copy_from_slice(&b);
            assert!(active(), "test host must have avx2+fma");
            type K2 = unsafe fn(&mut [f64], usize, usize, usize);
            #[allow(clippy::type_complexity)]
            let cases: [(K2, fn(f64, f64) -> f64); 4] = [
                (div_rr, protected_div),
                (min_rr, f64::min),
                (max_rr, f64::max),
                (sub_rr, |x, y| x - y),
            ];
            for (k, f) in cases {
                // SAFETY: stripes 0..3 of a 3-stripe buffer; avx2+fma
                // asserted above.
                unsafe { k(&mut regs, 0, LANES, 2 * LANES) };
                for l in 0..LANES {
                    assert!(
                        feq(regs[l], f(a[l], b[l])),
                        "lane {l}: {} vs {}",
                        regs[l],
                        f(a[l], b[l])
                    );
                }
            }
            let _ = protected_log; // silence unused when cfg combinations shift
        }

        #[test]
        fn gathered_operand_kernels_match_scalar() {
            let mut v = [0.0; LANES];
            let mut b = [0.0; LANES];
            for i in 0..LANES {
                v[i] = (i as f64 * 1.37 - 20.0) * 1e2;
                b[i] = i as f64 * 0.31 - 4.0;
            }
            v[0] = f64::NAN;
            b[1] = 0.0;
            b[2] = 1e-13;
            v[3] = f64::INFINITY;
            v[4] = 0.0;
            let mut regs = vec![0.0; 2 * LANES];
            regs[LANES..].copy_from_slice(&b);
            assert!(active(), "test host must have avx2+fma");
            // SAFETY (all four calls): stripes 0 and 1 of a 2-stripe
            // buffer plus a stack-owned gathered operand; avx2+fma
            // asserted above. Stripe 1 (the register operand) is never a
            // destination, so each call sees the same inputs.
            unsafe { div_vl(&mut regs, 0, &v, LANES) };
            for l in 0..LANES {
                assert!(feq(regs[l], protected_div(v[l], b[l])), "div_vl lane {l}");
            }
            // SAFETY: see above.
            unsafe { div_vr(&mut regs, 0, LANES, &v) };
            for l in 0..LANES {
                assert!(feq(regs[l], protected_div(b[l], v[l])), "div_vr lane {l}");
            }
            // SAFETY: see above.
            unsafe { pow_vl(&mut regs, 0, &v, LANES) };
            for l in 0..LANES {
                assert!(feq(regs[l], fast_pow(v[l], b[l])), "pow_vl lane {l}");
            }
            // SAFETY: see above.
            unsafe { pow_vr(&mut regs, 0, LANES, &v) };
            for l in 0..LANES {
                assert!(feq(regs[l], fast_pow(b[l], v[l])), "pow_vr lane {l}");
            }
        }
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod fallback {
    /// SIMD unavailable (feature off or non-x86-64): the relaxed tier
    /// degrades to the bit-exact threaded tier.
    pub fn active() -> bool {
        false
    }
}
