//! Explicit SoA-SIMD kernels for the columnar lane interpreters.
//!
//! Every x86-64 build compiles these kernels, and [`active`] (AVX2+FMA,
//! detected once at run time) decides whether they run: where it holds,
//! the 32-lane stripe loops of `RegProgram::run_lanes` /
//! `run_lanes_one_row` dispatch to the `__m256d` kernels here instead of
//! the scalar `k_*` kernels. Two kinds of kernel live side by side:
//!
//! * **Bit-exact kernels** — add/sub/mul, the protected division
//!   (mask-and-blend of the `|y| < ε → 0` guard), `min`/`max` under
//!   [`crate::eval::min_op`]'s tie rule, sign flip, and `a·b − c`
//!   (multiply and subtract rounded separately, never an FMA). Per lane
//!   these produce the same bits as the scalar operators on every input,
//!   signed zeros included, so *every* tier uses them; the tier-equality
//!   contract is untouched.
//!
//! * **Relaxed kernels** — vectorized `exp`/`log`/`pow`
//!   ([`crate::fastmath`]'s Cephes rationals, FMA-for-FMA identical per
//!   lane to the scalar versions, but *not* to libm). Only the `simd`
//!   tier ([`Fidelity::RelaxedSimd`](crate::vm::Fidelity)) may select
//!   these; the registry and `bench_vm --validate` both check the
//!   policy.
//!
//! Every kernel operates on full 32-lane stripes (`8 × __m256d`) of the
//! flat lane register file; ragged tail chunks (`m < LANES`), other CPUs
//! and other targets run the scalar kernels at the call site. Callers
//! guarantee — and debug-assert here — that `off + LANES <= regs.len()`
//! for every stripe offset, which holds because offsets are `r * LANES`
//! for registers `r < n_regs` proved by `RegProgram::validate()`
//! (re-proved as `lint::absint` obligations, site class "simd kernels").

#![allow(clippy::missing_safety_doc)] // pub(crate) kernels; contract in module docs

#[cfg(target_arch = "x86_64")]
pub(crate) use imp::*;

/// Whether the AVX2+FMA vector kernels run on this machine (checked once,
/// cached; false off x86-64) — the public probe behind
/// [`crate::Tier::fidelity`] and the bench's `"simd_active"` field.
pub fn active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static ACTIVE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use crate::eval::{DIV_EPS, EXP_CLAMP, LOG_EPS};
    use crate::fastmath::{
        EXP_C1, EXP_C2, EXP_P, EXP_Q, LOG2E, LOG_LN2_HI, LOG_LN2_LO, LOG_P, LOG_Q, SQRT_HALF,
    };
    use crate::vm::LANES;
    use core::arch::x86_64::*;

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
    //
    // Register-only math with no memory access: safe `target_feature`
    // functions, callable from the kernels, which enable the same features.

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_add(x: __m256d, y: __m256d) -> __m256d {
        _mm256_add_pd(x, y)
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_sub(x: __m256d, y: __m256d) -> __m256d {
        _mm256_sub_pd(x, y)
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_mul(x: __m256d, y: __m256d) -> __m256d {
        _mm256_mul_pd(x, y)
    }

    /// Protected division: `|y| < ε → 0`, bit-exact vs `protected_div`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_div_p(x: __m256d, y: __m256d) -> __m256d {
        let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
        // NLT + unordered: the guard fires only when `|y| < ε` compares
        // *ordered* true — a NaN divisor falls through to the division
        // and propagates, exactly like the scalar `y.abs() < ε` branch.
        let ok = _mm256_cmp_pd::<_CMP_NLT_UQ>(_mm256_and_pd(y, absmask), _mm256_set1_pd(DIV_EPS));
        // Quotients in the guarded lanes are discarded by the blend
        // (SIMD fp exceptions are masked; no traps).
        _mm256_and_pd(ok, _mm256_div_pd(x, y))
    }

    /// [`min_op`](crate::eval::min_op): `vminpd(y, x)` is `y < x ? y : x`,
    /// so a tie (`-0.0` against `0.0` too) or a NaN `y` gives `x`; patch
    /// the `x is NaN → y` lanes back in.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_min_p(x: __m256d, y: __m256d) -> __m256d {
        let m = _mm256_min_pd(y, x);
        let x_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_pd(m, y, x_nan)
    }

    /// [`max_op`](crate::eval::max_op); see [`e_min_p`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_max_p(x: __m256d, y: __m256d) -> __m256d {
        let m = _mm256_max_pd(y, x);
        let x_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_pd(m, y, x_nan)
    }

    /// Sign flip — identical to scalar negation on every f64.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_neg(x: __m256d) -> __m256d {
        _mm256_xor_pd(x, _mm256_set1_pd(-0.0))
    }

    /// Two separate roundings — never contracted to an FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_mul_sub(x: __m256d, y: __m256d, z: __m256d) -> __m256d {
        _mm256_sub_pd(_mm256_mul_pd(x, y), z)
    }

    /// Vector `fast_exp` — operation-for-operation the scalar
    /// [`crate::fastmath::fast_exp`], so each lane is bit-identical to
    /// the scalar fallback. Relaxed fidelity only.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_exp(x0: __m256d) -> __m256d {
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
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_log(x0: __m256d) -> __m256d {
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
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn e_pow(x: __m256d, y: __m256d) -> __m256d {
        e_exp(_mm256_mul_pd(y, e_log(x)))
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
        use crate::ast::{BinOp, UnOp};
        use crate::eval::apply_bin;
        use crate::fastmath::{fast_exp, fast_log, fast_pow};
        use crate::simd::active;

        type Rr = unsafe fn(&mut [f64], usize, usize, usize);
        type Cl = unsafe fn(&mut [f64], usize, f64, usize);
        type Cr = unsafe fn(&mut [f64], usize, usize, f64);

        /// Both zeros, both infinities, NaN, divisors at and below
        /// `DIV_EPS` and ordinary values: 16, so a stripe holds them twice.
        fn specials() -> [f64; 16] {
            let (inf, nan, eps) = (f64::INFINITY, f64::NAN, DIV_EPS);
            let (below, half) = (f64::from_bits(eps.to_bits() - 1), eps / 2.0);
            [
                0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 1e300, -1e-300, inf, -inf, nan, eps, -eps, below,
                -below, half,
            ]
        }

        /// Same bits in every lane; any NaN matches any NaN (payloads may
        /// differ).
        fn check(form: &str, op: impl std::fmt::Debug, got: &[f64], want: impl Fn(usize) -> f64) {
            for (l, &g) in got.iter().enumerate() {
                let w = want(l);
                let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                assert!(same, "{op:?} {form} lane {l}: kernel {g:e}, scalar {w:e}");
            }
        }

        /// Every bit-exact kernel in every form (`rr`, `cl`, `cr`, `vl`,
        /// `vr`, `neg`, `mul_sub`) against the interpreter's operators on
        /// every pair (and `mul_sub` triple) of specials, bit for bit: a
        /// `-0.0`/`0.0` tie in `min`/`max` counts.
        #[test]
        fn bit_exact_kernels_match_the_scalar_operators_bitwise() {
            if !active() {
                return; // no AVX2+FMA on this CPU: these kernels never run
            }
            let ops: [(BinOp, Rr, Cl, Cr); 6] = [
                (BinOp::Add, add_rr, add_cl, add_cr),
                (BinOp::Sub, sub_rr, sub_cl, sub_cr),
                (BinOp::Mul, mul_rr, mul_cl, mul_cr),
                (BinOp::Div, div_rr, div_cl, div_cr),
                (BinOp::Min, min_rr, min_cl, min_cr),
                (BinOp::Max, max_rr, max_cl, max_cr),
            ];
            let s = specials();
            let ys: [f64; LANES] = std::array::from_fn(|l| s[l % s.len()]);
            let mut regs = vec![0.0; 4 * LANES];
            regs[2 * LANES..3 * LANES].copy_from_slice(&ys);
            for x in s {
                let xs = [x; LANES];
                regs[LANES..2 * LANES].copy_from_slice(&xs);
                let want = |op| move |l: usize| apply_bin(op, x, ys[l]);
                let want_r = |op| move |l: usize| apply_bin(op, ys[l], x);
                // SAFETY (each call in this loop): stripes 0..4 of a
                // 4-stripe buffer and a stack-owned gathered operand;
                // AVX2+FMA checked above.
                for (op, rr, cl, cr) in ops {
                    unsafe { rr(&mut regs, 0, LANES, 2 * LANES) };
                    check("rr", op, &regs[..LANES], want(op));
                    unsafe { cl(&mut regs, 0, x, 2 * LANES) };
                    check("cl", op, &regs[..LANES], want(op));
                    unsafe { cr(&mut regs, 0, 2 * LANES, x) };
                    check("cr", op, &regs[..LANES], want_r(op));
                }
                unsafe { div_vl(&mut regs, 0, &xs, 2 * LANES) };
                check("vl", BinOp::Div, &regs[..LANES], want(BinOp::Div));
                // SAFETY: as above.
                unsafe { div_vr(&mut regs, 0, 2 * LANES, &xs) };
                check("vr", BinOp::Div, &regs[..LANES], want_r(BinOp::Div));
                for z in s {
                    regs[3 * LANES..].fill(z);
                    unsafe { mul_sub_k(&mut regs, 0, LANES, 2 * LANES, 3 * LANES) };
                    // Two roundings, as `RInstr::MulSub` requires.
                    check("mul_sub", (x, z), &regs[..LANES], |l| x * ys[l] - z);
                }
            }
            // SAFETY: as above.
            unsafe { neg_k(&mut regs, 0, 2 * LANES) };
            check("neg", UnOp::Neg, &regs[..LANES], |l| -ys[l]);
        }

        /// Every x86-64 build carries the kernels; the CPU alone decides
        /// whether they run.
        #[test]
        fn kernels_run_exactly_where_the_cpu_has_avx2_and_fma() {
            let avx2_fma = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            assert_eq!(active(), avx2_fma);
        }

        /// The relaxed kernels against [`crate::fastmath`]'s scalar
        /// versions, bit for bit, on the specials and a sweep.
        #[test]
        fn relaxed_kernels_match_scalar_fastmath_bitwise() {
            if !active() {
                return; // no AVX2+FMA on this CPU: these kernels never run
            }
            let s = specials();
            let xs: [f64; LANES] =
                std::array::from_fn(|l| s.get(l).copied().unwrap_or(l as f64 * 3.7 - 55.4));
            let ys: [f64; LANES] = std::array::from_fn(|l| l as f64 * 0.31 - 4.0);
            let mut regs = vec![0.0; 3 * LANES];
            regs[LANES..2 * LANES].copy_from_slice(&xs);
            regs[2 * LANES..].copy_from_slice(&ys);
            let pow = |l: usize| fast_pow(xs[l], ys[l]);
            // SAFETY (each call below): stripes 0..3 of a 3-stripe buffer
            // and stack-owned gathered operands; AVX2+FMA checked above.
            unsafe { exp_k(&mut regs, 0, LANES) };
            check("exp", UnOp::Exp, &regs[..LANES], |l| fast_exp(xs[l]));
            unsafe { log_k(&mut regs, 0, LANES) };
            check("log", UnOp::Log, &regs[..LANES], |l| fast_log(xs[l]));
            unsafe { pow_rr(&mut regs, 0, LANES, 2 * LANES) };
            check("rr", BinOp::Pow, &regs[..LANES], pow);
            unsafe { pow_vl(&mut regs, 0, &xs, 2 * LANES) };
            check("vl", BinOp::Pow, &regs[..LANES], pow);
            unsafe { pow_vr(&mut regs, 0, LANES, &ys) };
            check("vr", BinOp::Pow, &regs[..LANES], pow);
            // SAFETY: as above.
            unsafe { pow_cl(&mut regs, 0, 2.5, 2 * LANES) };
            check("cl", BinOp::Pow, &regs[..LANES], |l| fast_pow(2.5, ys[l]));
            unsafe { pow_cr(&mut regs, 0, LANES, 1.7) };
            check("cr", BinOp::Pow, &regs[..LANES], |l| fast_pow(xs[l], 1.7));
        }
    }
}
