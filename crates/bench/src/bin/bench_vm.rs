//! Bytecode-pipeline benchmark: the per-tier cost of one Euler step,
//! measured end to end over the river problem and emitted as
//! machine-readable JSON.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p gmr-bench --bin bench_vm -- [--quick] [--out PATH]
//! cargo run --release -p gmr-bench --bin bench_vm -- --validate PATH
//! ```
//!
//! Five rows of the same simulation are timed on the Table V expert model
//! and three hand-authored "evolved elite" revisions of it (the shapes the
//! GP engine actually produces: an added state-independent flux, a
//! multiplicative modulation, a coupled second equation):
//!
//! * `interp`     — the tree-walking interpreter (`RiverProblem::simulate`),
//!   the paper's no-runtime-compilation case and the baseline every
//!   speedup is relative to; its `instrs_per_step` is the two trees' node
//!   count;
//! * `threaded`   — the whole-system register VM (constant folding,
//!   peephole identities, cross-equation CSE, the fixed superinstruction
//!   set, the state-independent prefix swept columnar in 32-lane chunks)
//!   running its core as threaded code;
//! * `simd`       — the same bytecode with AVX2+FMA kernels; its fast
//!   transcendentals are *relaxed* fidelity (~1e-13 relative error), so it
//!   is validated against a trajectory tolerance instead of bit-equality.
//!
//! Two **batch rows** per model (`batch`, `simd_batch`) time 32 lock-step
//! trajectories through a shared-table `LaneSession` — one core dispatch
//! per step for all lanes over the SoA lane kernels, the state-independent
//! prefix computed once and shared — in per-trajectory steps/sec. That is
//! the unit of work of the batching server's coalesced sweeps, and where
//! the SoA-SIMD backend pays off fully: every lane is an independent
//! trajectory, so per-trajectory cost drops by the width of the stripe.
//! Every row integrates through `gmr_bio::euler`, the loop the search and
//! the server run.
//!
//! Every **bit-exact** row must produce a `==`-identical B_Phy trajectory
//! to the tree interpreter — checked on every run, not just in the test
//! suite. A live `simd` tier (`"simd_active"`: AVX2+FMA detected)
//! reports `"fidelity": "relaxed-simd"` and its observed `max_rel_err`
//! against the interpreter trajectory, gated at [`REL_TOL`].
//!
//! `--validate` strict-parses an emitted JSON file with `gmr_json` and
//! enforces the acceptance gates: schema tag, equivalence flags, per-row
//! speedup floors on **all** pinned models, and — when the file was
//! produced with the vector kernels live — the headline targets: best row
//! at least 12.6x the interpreter on the Table V model and at least 2x the
//! solo `threaded` tier on every model.

use gmr_bench::cli;
use gmr_bio::{euler, manual, name_table, RiverProblem};
use gmr_expr::{parse, CompiledSystem, Expr, Fidelity, LaneForcing, Tier, LANES};
use gmr_hydro::{generate, SyntheticConfig};
use gmr_json::{push_escaped, push_f64, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SCHEMA: &str = "gmr-bench-vm/v3";

/// Trajectory tolerance for relaxed-fidelity tiers: max relative error of
/// B_Phy vs the interpreter, pointwise over the whole simulation.
const REL_TOL: f64 = 1e-6;

/// The compiled rows after the `interp` baseline: name, tier, and whether
/// the row runs [`LANES`] lock-step trajectories through a `LaneSession`
/// (the workload of the batching server and of lane-striped population
/// evaluation, timed in per-trajectory steps/sec).
const ROWS: [(&str, Tier, bool); 4] = [
    ("threaded", Tier::Threaded, false),
    ("simd", Tier::Simd, false),
    ("batch", Tier::Threaded, true),
    ("simd_batch", Tier::Simd, true),
];

/// Per-row speedup-vs-interpreter floors, enforced on **every** pinned
/// model. Deliberately below observed numbers: CI machines are noisy, and
/// a regression that halves a row still trips these.
const TIER_FLOORS: [(&str, f64); 4] = [
    ("threaded", 1.7),
    ("simd", 1.7),
    ("batch", 3.8),
    ("simd_batch", 3.8),
];

/// Headline gates, applied only when the emitting build had the AVX2
/// kernels live (`"simd_active": true`).
const MIN_BEST_TABLE_V_SIMD: f64 = 12.6;
const MIN_BEST_VS_THREADED_SIMD: f64 = 2.0;

const MODEL_NAMES: [&str; 4] = [
    "table_v_manual",
    "elite_added_flux",
    "elite_temp_modulated",
    "elite_coupled_zoo",
];

/// One benched model: a name plus its two-equation system.
struct Model {
    name: &'static str,
    eqs: [Expr; 2],
}

fn parse_eq(src: &str) -> Expr {
    let names = name_table();
    parse(src, &names, |kind| gmr_bio::params::spec(kind).mean)
        .unwrap_or_else(|e| panic!("bench model failed to parse: {e}\n{src}"))
}

/// Table V plus three evolved-elite shapes. The elites are hand-authored
/// from the same building blocks the river grammar's connector/extender
/// discipline produces, so the instruction mix matches what the engine
/// compiles millions of times per run.
fn models() -> Vec<Model> {
    let manual = gmr_bio::manual_system();
    let dbphy = manual::dbphy_src();
    let dbzoo = manual::dbzoo_src();
    // Elite 1: an additive state-independent flux (CO2-modulated light
    // term) — the canonical Ext1 revision; maximises prefix work.
    let elite_flux = [
        parse_eq(&format!(
            "({dbphy}) + R * (Vcd / (Vcd + 300)) * ({})",
            manual::F_LIGHT
        )),
        parse_eq(&dbzoo),
    ];
    // Elite 2: multiplicative temperature modulation of the whole growth
    // equation — duplicates the two-optimum response, so CSE must catch it.
    let elite_mod = [
        parse_eq(&format!("({dbphy}) * ({})", manual::H_TEMP)),
        parse_eq(&dbzoo),
    ];
    // Elite 3: nutrient-coupled zooplankton — revision lands in the second
    // equation, sharing λ/g across equations.
    let elite_zoo = [
        parse_eq(&dbphy),
        parse_eq(&format!(
            "({dbzoo}) + CUZ * ({}) * BZoo",
            manual::G_NUTRIENT
        )),
    ];
    vec![
        Model {
            name: MODEL_NAMES[0],
            eqs: manual,
        },
        Model {
            name: MODEL_NAMES[1],
            eqs: elite_flux,
        },
        Model {
            name: MODEL_NAMES[2],
            eqs: elite_mod,
        },
        Model {
            name: MODEL_NAMES[3],
            eqs: elite_zoo,
        },
    ]
}

fn problem(quick: bool) -> RiverProblem {
    let ds = generate(&SyntheticConfig {
        start_year: 1996,
        end_year: if quick { 1997 } else { 1999 },
        train_end_year: if quick { 1996 } else { 1998 },
        ..Default::default()
    });
    RiverProblem::from_dataset(&ds, ds.train)
}

/// The `interp` baseline: the tree-walking interpreter through the
/// production integrator.
fn simulate_interp(p: &RiverProblem, eqs: &[Expr; 2], out: &mut Vec<f64>) {
    out.clear();
    out.extend(p.simulate(eqs));
}

/// The solo compiled rows run through the production path.
fn simulate_vm(p: &RiverProblem, sys: &CompiledSystem, out: &mut Vec<f64>) {
    out.clear();
    out.extend(p.simulate_compiled(sys));
}

/// [`LANES`] identical trajectories in lock-step through a shared-table
/// `LaneSession`: the prefix swept once and shared, then one core dispatch
/// per step for all lanes. `out` receives lane 0's B_Phy trajectory (every
/// lane computes the same one, so it must match the single-trajectory
/// reference).
fn simulate_multi(p: &RiverProblem, sys: &CompiledSystem, out: &mut Vec<f64>) {
    out.clear();
    let prefix = sys.sweep_prefix(&p.forcings);
    let mut session = sys.lane_session(LaneForcing::Shared {
        rows: &p.forcings,
        prefix: &prefix,
        lanes: LANES,
    });
    let rhs = |t, s: &[f64], d: &mut [f64]| session.step(t, s, d);
    let o = &p.opts;
    let mut states = [[o.init.0, o.init.1]; LANES];
    euler(
        &mut states,
        0..p.num_cases(),
        o.dt,
        o.state_cap,
        rhs,
        |l, _, bphy, _| {
            if l == 0 {
                out.push(bphy);
            }
            true
        },
    );
}

/// Opcode dispatches one full simulation costs for a compiled system: each
/// prefix instruction dispatches once per 32-lane *chunk* of the forcing
/// table instead of once per row — that amortisation is the point.
fn dispatches(days: usize, sys: &CompiledSystem) -> u64 {
    let chunks = days.div_ceil(LANES);
    (days * sys.core_len() + chunks * sys.prefix_len()) as u64
}

/// Pointwise max relative error of a trajectory against the reference.
fn max_rel_err(got: &[f64], reference: &[f64]) -> f64 {
    got.iter()
        .zip(reference)
        .map(|(&a, &r)| {
            if a == r || (a.is_nan() && r.is_nan()) {
                0.0
            } else {
                (a - r).abs() / r.abs().max(1e-12)
            }
        })
        .fold(0.0, f64::max)
}

struct TierResult {
    name: &'static str,
    fidelity: Fidelity,
    /// Straight-line instructions executed per Euler step (prefix counted
    /// per-row, i.e. before chunk amortisation; tree nodes for `interp`).
    instrs_per_step: usize,
    /// Opcode dispatches per full simulation (prefix counted per-chunk).
    dispatch_per_sim: u64,
    steps_per_sec: f64,
    speedup_vs_interp: f64,
    /// Observed max relative trajectory error vs the interpreter (exactly
    /// 0.0 for a bit-identical run).
    max_rel_err: f64,
}

struct ModelResult {
    name: &'static str,
    days: usize,
    tiers: Vec<TierResult>,
    /// Every bit-exact row reproduced the interpreter trajectory `==`.
    exact_identical: bool,
    /// Every relaxed row stayed within [`REL_TOL`].
    relaxed_in_tol: bool,
}

/// Time `sim` by running whole simulations until `min_time` elapses.
fn time_sim(mut sim: impl FnMut(&mut Vec<f64>), days: usize, min_time: Duration) -> f64 {
    let mut out = Vec::with_capacity(days);
    // Warm-up: one untimed run to fault in buffers.
    sim(&mut out);
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed() < min_time {
        sim(&mut out);
        black_box(&out);
        reps += 1;
    }
    (days as u64 * reps) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn bench_model(p: &RiverProblem, m: &Model, min_time: Duration) -> ModelResult {
    let days = p.num_cases();
    let reference = p.simulate(&m.eqs);

    let interp_instrs = m.eqs[0].size() + m.eqs[1].size();
    let interp_sps = time_sim(|out| simulate_interp(p, &m.eqs, out), days, min_time);
    let mut tiers = vec![TierResult {
        name: "interp",
        fidelity: Fidelity::BitExact,
        instrs_per_step: interp_instrs,
        dispatch_per_sim: (days * interp_instrs) as u64,
        steps_per_sec: interp_sps,
        speedup_vs_interp: 1.0,
        max_rel_err: 0.0,
    }];
    let mut exact_identical = true;
    let mut relaxed_in_tol = true;
    for (name, tier, batch) in ROWS {
        let sys = CompiledSystem::compile(&m.eqs, tier);
        // A batch row's lane 0 recomputes exactly the single-trajectory
        // problem, so one equivalence contract covers every row: bit-exact
        // rows must match the interpreter `==`, a live relaxed row must
        // stay inside the trajectory tolerance.
        let sim = |out: &mut Vec<f64>| {
            if batch {
                simulate_multi(p, &sys, out)
            } else {
                simulate_vm(p, &sys, out)
            }
        };
        let mut buf = Vec::with_capacity(days);
        sim(&mut buf);
        let err = max_rel_err(&buf, &reference);
        match sys.fidelity() {
            Fidelity::BitExact => exact_identical &= buf == reference,
            Fidelity::RelaxedSimd => relaxed_in_tol &= err <= REL_TOL,
        }
        let lanes = if batch { LANES } else { 1 };
        let sps = time_sim(sim, days, min_time) * lanes as f64;
        tiers.push(TierResult {
            name,
            fidelity: sys.fidelity(),
            instrs_per_step: sys.core_len() + sys.prefix_len(),
            // A batch row's dispatches are *shared* across the lanes —
            // that sharing is the entire point of the batch rows.
            dispatch_per_sim: dispatches(days, &sys),
            steps_per_sec: sps,
            speedup_vs_interp: sps / interp_sps,
            max_rel_err: err,
        });
    }
    ModelResult {
        name: m.name,
        days,
        tiers,
        exact_identical,
        relaxed_in_tol,
    }
}

fn tier_speedup(r: &ModelResult, name: &str) -> f64 {
    r.tiers
        .iter()
        .find(|t| t.name == name)
        .map(|t| t.speedup_vs_interp)
        .unwrap_or(0.0)
}

/// Fastest row's speedup-vs-interpreter for one model.
fn best_speedup(r: &ModelResult) -> f64 {
    r.tiers
        .iter()
        .map(|t| t.speedup_vs_interp)
        .fold(0.0, f64::max)
}

/// Worst-case headroom of the best row over the solo `threaded` tier
/// (the same compiled program, dispatched one trajectory at a time),
/// across all models.
fn min_best_vs_threaded(results: &[ModelResult]) -> f64 {
    results
        .iter()
        .map(|r| best_speedup(r) / tier_speedup(r, "threaded").max(1e-9))
        .fold(f64::INFINITY, f64::min)
}

fn render_json(results: &[ModelResult], quick: bool) -> String {
    let exact_ok = results.iter().all(|r| r.exact_identical);
    let relaxed_ok = results.iter().all(|r| r.relaxed_in_tol);
    let best_table_v = results
        .iter()
        .find(|r| r.name == MODEL_NAMES[0])
        .map_or(0.0, best_speedup);
    let mut out = String::from("{\n  \"schema\": ");
    push_escaped(&mut out, SCHEMA);
    out.push_str(",\n  \"scale\": ");
    push_escaped(&mut out, if quick { "quick" } else { "default" });
    out.push_str(&format!(",\n  \"lanes\": {LANES},\n"));
    out.push_str(&format!(
        "  \"simd_active\": {},\n",
        gmr_expr::simd::active()
    ));
    out.push_str(&format!(
        "  \"exact_tiers_bit_identical\": {exact_ok},\n  \"relaxed_within_tolerance\": {relaxed_ok},\n"
    ));
    out.push_str("  \"models\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\"model\": ");
        push_escaped(&mut out, r.name);
        out.push_str(&format!(
            ", \"days\": {}, \"bit_identical\": {}, \"relaxed_within_tolerance\": {}, \"tiers\": [\n",
            r.days, r.exact_identical, r.relaxed_in_tol
        ));
        for (j, t) in r.tiers.iter().enumerate() {
            out.push_str("      {\"tier\": ");
            push_escaped(&mut out, t.name);
            out.push_str(", \"fidelity\": ");
            push_escaped(&mut out, t.fidelity.name());
            out.push_str(&format!(
                ", \"instrs_per_step\": {}, \"dispatch_per_sim\": {}, \"steps_per_sec\": ",
                t.instrs_per_step, t.dispatch_per_sim
            ));
            push_f64(&mut out, (t.steps_per_sec * 10.0).round() / 10.0);
            out.push_str(", \"speedup_vs_interp\": ");
            push_f64(&mut out, (t.speedup_vs_interp * 1000.0).round() / 1000.0);
            out.push_str(", \"max_rel_err\": ");
            push_f64(&mut out, t.max_rel_err);
            out.push_str(if j + 1 < r.tiers.len() { "},\n" } else { "}\n" });
        }
        out.push_str(if i + 1 < results.len() {
            "    ]},\n"
        } else {
            "    ]}\n"
        });
    }
    out.push_str("  ],\n  \"best_speedup_table_v\": ");
    push_f64(&mut out, (best_table_v * 1000.0).round() / 1000.0);
    out.push_str(",\n  \"min_best_vs_threaded\": ");
    push_f64(
        &mut out,
        (min_best_vs_threaded(results) * 1000.0).round() / 1000.0,
    );
    out.push_str("\n}\n");
    out
}

/// Enforce the acceptance gate on an emitted file. Returns the failures.
fn validate(src: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let doc = match gmr_json::parse(src) {
        Ok(v) => v,
        Err(e) => return vec![format!("not strict JSON: {e}")],
    };
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("missing schema tag {SCHEMA:?}"));
    }
    for key in ["exact_tiers_bit_identical", "relaxed_within_tolerance"] {
        if doc.get(key) != Some(&Value::Bool(true)) {
            errs.push(format!("{key} is not true"));
        }
    }
    let simd_active = doc.get("simd_active") == Some(&Value::Bool(true));
    let models = doc.get("models").and_then(Value::as_arr).unwrap_or(&[]);
    for name in MODEL_NAMES {
        let Some(model) = models
            .iter()
            .find(|m| m.get("model").and_then(Value::as_str) == Some(name))
        else {
            errs.push(format!("no entry for model {name:?}"));
            continue;
        };
        let tiers = model.get("tiers").and_then(Value::as_arr).unwrap_or(&[]);
        for (tier, floor) in TIER_FLOORS {
            let Some(t) = tiers
                .iter()
                .find(|t| t.get("tier").and_then(Value::as_str) == Some(tier))
            else {
                errs.push(format!("{name}: no entry for tier {tier:?}"));
                continue;
            };
            match t.get("speedup_vs_interp").and_then(Value::as_f64) {
                Some(s) if s >= floor => {}
                Some(s) => errs.push(format!(
                    "{name}/{tier}: speedup {s:.3} below the {floor}x floor"
                )),
                None => errs.push(format!("{name}/{tier}: speedup_vs_interp missing")),
            }
        }
        if tiers
            .iter()
            .all(|t| t.get("tier").and_then(Value::as_str) != Some("interp"))
        {
            errs.push(format!("{name}: no entry for tier \"interp\""));
        }
    }
    if simd_active {
        match doc.get("best_speedup_table_v").and_then(Value::as_f64) {
            Some(s) if s >= MIN_BEST_TABLE_V_SIMD => {}
            Some(s) => errs.push(format!(
                "best_speedup_table_v {s:.3} below the {MIN_BEST_TABLE_V_SIMD}x simd gate"
            )),
            None => errs.push("best_speedup_table_v missing or not a number".into()),
        }
        match doc.get("min_best_vs_threaded").and_then(Value::as_f64) {
            Some(s) if s >= MIN_BEST_VS_THREADED_SIMD => {}
            Some(s) => errs.push(format!(
                "min_best_vs_threaded {s:.3} below the {MIN_BEST_VS_THREADED_SIMD}x simd gate"
            )),
            None => errs.push("min_best_vs_threaded missing or not a number".into()),
        }
    }
    errs
}

/// The arguments part of the usage line.
const USAGE: &str = "[--quick] [--out PATH] [--validate PATH]";

fn main() {
    let args = cli::BenchArgs::from_env(USAGE, &["--validate", "--out"], &["--quick"]);
    if let Some(path) = args.value("--validate") {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let errs = validate(&src);
        if errs.is_empty() {
            println!("{path}: OK ({SCHEMA})");
            return;
        }
        for e in &errs {
            eprintln!("{path}: FAIL: {e}");
        }
        std::process::exit(1);
    }

    let quick = args.has("--quick");
    let out_path = args.value("--out").unwrap_or("BENCH_vm.json");
    let min_time = Duration::from_millis(if quick { 120 } else { 400 });

    let p = problem(quick);
    let models = models();
    eprintln!(
        "bench_vm: {} days, {} models, rows [interp{}], simd_active={}",
        p.num_cases(),
        models.len(),
        ROWS.iter()
            .map(|(name, ..)| format!(", {name}"))
            .collect::<String>(),
        gmr_expr::simd::active()
    );

    // Verify every benched model's bytecode before timing it: an unsound
    // pipeline would make the speedup numbers meaningless, so Error-level
    // abstract-interpretation findings (or an unproved register bound) are
    // a hard failure, same gate the serving registry applies.
    let env = gmr_lint::IntervalEnv::river();
    for m in &models {
        for tier in Tier::ALL {
            let sys = CompiledSystem::compile_checked(&m.eqs, 10, 2, tier)
                .unwrap_or_else(|e| panic!("{}: does not compile: {e:?}", m.name));
            let analysis = gmr_lint::analyze_system(&sys, &env, m.name);
            if !analysis.report.is_clean() || !analysis.safety.proved() {
                eprintln!(
                    "FAIL: {} refused by bytecode verification:\n{}",
                    m.name,
                    analysis.report.render_human()
                );
                std::process::exit(1);
            }
        }
    }
    eprintln!("bench_vm: bytecode verification clean for all models/tiers");
    let results: Vec<ModelResult> = models
        .iter()
        .map(|m| {
            let r = bench_model(&p, m, min_time);
            for t in &r.tiers {
                eprintln!(
                    "  {}/{} [{}]: {} instrs/step, {} dispatches/sim, {:.0} steps/s ({:.2}x, max_rel_err {:.2e})",
                    r.name,
                    t.name,
                    t.fidelity.name(),
                    t.instrs_per_step,
                    t.dispatch_per_sim,
                    t.steps_per_sec,
                    t.speedup_vs_interp,
                    t.max_rel_err
                );
            }
            if !r.exact_identical {
                eprintln!("FAIL: {} bit-exact rows diverged from interpreter", r.name);
            }
            if !r.relaxed_in_tol {
                eprintln!("FAIL: {} relaxed row outside {REL_TOL:e} tolerance", r.name);
            }
            r
        })
        .collect();

    let json = render_json(&results, quick);
    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "wrote {out_path} (best {:.2}x on table_v; best/threaded >= {:.2}x everywhere)",
        results
            .iter()
            .find(|r| r.name == MODEL_NAMES[0])
            .map_or(0.0, best_speedup),
        min_best_vs_threaded(&results)
    );

    let errs = validate(&json);
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("FAIL: {e}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_results() -> Vec<ModelResult> {
        MODEL_NAMES
            .iter()
            .map(|name| {
                let mut tiers = vec![TierResult {
                    name: "interp",
                    fidelity: Fidelity::BitExact,
                    instrs_per_step: 40,
                    dispatch_per_sim: 40_000,
                    steps_per_sec: 1.0e6,
                    speedup_vs_interp: 1.0,
                    max_rel_err: 0.0,
                }];
                for (i, (row, tier, _)) in ROWS.into_iter().enumerate() {
                    tiers.push(TierResult {
                        name: row,
                        fidelity: tier.fidelity(),
                        instrs_per_step: 26,
                        dispatch_per_sim: 30_000,
                        steps_per_sec: (2 + 4 * i) as f64 * 6.0e6,
                        speedup_vs_interp: (2 + 4 * i) as f64 * 6.0,
                        max_rel_err: 0.0,
                    });
                }
                ModelResult {
                    name,
                    days: 1000,
                    tiers,
                    exact_identical: true,
                    relaxed_in_tol: true,
                }
            })
            .collect()
    }

    #[test]
    fn rendered_json_strict_reparses_and_validates() {
        let json = render_json(&tiny_results(), true);
        let doc = gmr_json::parse(&json).expect("strict parse");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            doc.get("models")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(MODEL_NAMES.len())
        );
        // The synthetic speedups are far above every gate, so a build with
        // live SIMD kernels validates too.
        assert_eq!(validate(&json), Vec::<String>::new());
    }

    #[test]
    fn validate_catches_divergence_and_slow_tiers() {
        let mut results = tiny_results();
        results[0].exact_identical = false;
        let json = render_json(&results, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("exact_tiers_bit_identical")));

        let mut results = tiny_results();
        for t in &mut results[2].tiers {
            if t.name == "threaded" {
                t.speedup_vs_interp = 0.5;
            }
        }
        let json = render_json(&results, true);
        assert!(validate(&json)
            .iter()
            .any(|e| e.contains("elite_temp_modulated/threaded")));

        assert!(!validate("{ not json").is_empty());
    }
}
