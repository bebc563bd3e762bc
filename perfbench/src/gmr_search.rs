//! `gmr_search`: the paper's workload. Closed loop, one GMR search at a
//! time on one evaluation thread, over the default-scale river dataset
//! (3653 training days), through `Gmr::run_with_lint` — the `exp_table5`
//! code path. No serving layer runs.

use crate::check::champion_ok;
use crate::stats::{self, ms, HostSnap};
use crate::{Args, Outcome};
use gmr_core::{river_priors, Gmr, RiverEvaluator};
use gmr_gp::{Engine, Evaluator, GpConfig, Phenotype};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generations per search. Search cost varies ~15% from seed to seed, so
/// a run's median needs many searches: 5 generations (~2 s) fit about 15
/// in a 30 s run. Over ten seeds the median spread 20% with 10
/// generations in 20 s runs, 10% with 5 generations and 9% with 3 in 30 s
/// runs, where host noise sets the floor.
const GENERATIONS: usize = 5;

/// Search `i`'s engine settings: the default population and local search
/// with one evaluation thread (the determinism contract makes every
/// counter repeat exactly), seeded the way `Gmr::run_many` derives run
/// seeds from a master seed.
fn gp_config(seed: u64, i: u64) -> GpConfig {
    GpConfig {
        pop_size: 120,
        max_gen: GENERATIONS,
        local_search_steps: 3,
        threads: 1,
        seed: seed.wrapping_add(0x9e37_79b9u64.wrapping_mul(i + 1)),
        // `Scale::gp_config` ramps σ over the last `max_gen / 5` generations,
        // at least one.
        sigma_ramp_last: 1,
        ..GpConfig::default()
    }
}

pub struct Setup {
    gmr: Gmr,
    manual_train_rmse: f64,
    generate_ms: f64,
}

/// The workload's set-up, timed (also what `--setup-only` runs).
pub fn setup() -> (Setup, f64) {
    let t0 = Instant::now();
    let ds = gmr_hydro::generate(&gmr_hydro::SyntheticConfig::default());
    let generate_ms = ms(t0.elapsed());
    let gmr = Gmr::new(&ds);
    let manual_train_rmse = gmr.train.rmse(&gmr_bio::manual_system());
    let secs = t0.elapsed().as_secs_f64();
    (
        Setup {
            gmr,
            manual_train_rmse,
            generate_ms,
        },
        secs,
    )
}

/// One search's answer: the champion genotype plus its scores, compared
/// bit-for-bit between the untraced and traced runs.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    tree: gmr_tag::DerivTree,
    train_bits: u64,
    test_bits: u64,
}

fn answer(tree: &gmr_tag::DerivTree, train: f64, test: f64) -> Answer {
    Answer {
        tree: tree.clone(),
        train_bits: train.to_bits(),
        test_bits: test.to_bits(),
    }
}

/// An evaluator that times every `Evaluator::evaluate` call of the wrapped
/// `RiverEvaluator` and counts the VM steps it ran (traced runs only).
struct TimedEvaluator {
    inner: RiverEvaluator,
    ns: AtomicU64,
    calls: AtomicU64,
    shorts: AtomicU64,
    steps: AtomicU64,
    core_instrs: AtomicU64,
}

impl Evaluator for TimedEvaluator {
    fn num_equations(&self) -> usize {
        self.inner.num_equations()
    }

    fn num_cases(&self) -> usize {
        self.inner.num_cases()
    }

    fn evaluate(&self, ph: &Phenotype, ctl: &mut dyn FnMut(f64, usize) -> bool) -> (f64, bool) {
        let start_us = gmr_obsv::now_us();
        let t = Instant::now();
        let mut done = 0;
        let out = self.inner.evaluate(ph, &mut |running, d| {
            done = d;
            ctl(running, d)
        });
        let ns = t.elapsed().as_nanos() as u64;
        gmr_obsv::span::record_external("bench.evaluate", start_us, ns / 1000, None);
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        let steps = if out.1 { self.num_cases() } else { done };
        if !out.1 {
            self.shorts.fetch_add(1, Relaxed);
        }
        self.steps.fetch_add(steps as u64, Relaxed);
        let core = ph.compiled().map_or(0, |s| s.core_len());
        self.core_instrs.fetch_add(core as u64, Relaxed);
        out
    }
}

/// Per-search layer accounting of one traced search, milliseconds unless
/// named otherwise.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    wall: f64,
    engine_self: f64,
    pool_self: f64,
    evaluate: f64,
    calls: f64,
    shorts: f64,
    steps: f64,
    core_instrs: f64,
    cases: f64,
    cache_hit_rate: f64,
    pheno_builds: f64,
    pheno_reuses: f64,
    test_rmse: f64,
    lower_us: f64,
    compile_us: f64,
}

fn traced_search(s: &Setup, gp: &GpConfig) -> (Answer, Layers, bool) {
    let t0 = Instant::now();
    let start_us = gmr_obsv::now_us();
    let ev = TimedEvaluator {
        inner: RiverEvaluator::new(s.gmr.train.clone()),
        ns: AtomicU64::new(0),
        calls: AtomicU64::new(0),
        shorts: AtomicU64::new(0),
        steps: AtomicU64::new(0),
        core_instrs: AtomicU64::new(0),
    };
    let elites = Mutex::new(Vec::new());
    let mut engine = Engine::new(&s.gmr.grammar.grammar, &ev, river_priors(), gp.clone());
    engine.set_invariant_hook(|_, tree, _| elites.lock().expect("hook lock").push(tree.clone()));
    let mut gen_wall = Duration::ZERO;
    let mut eval_ns_in_gens = 0;
    let report = engine.run_with_observer(|g| {
        gen_wall += g.elapsed;
        eval_ns_in_gens = ev.ns.load(Relaxed);
    });
    let (_, [train, _, test, _]) = s.gmr.score(&report.best.tree);
    let wall = t0.elapsed();
    gmr_obsv::span::record_external(
        "bench.search",
        start_us,
        wall.as_micros() as u64,
        Some(gp.seed),
    );
    let ok = train <= s.manual_train_rmse;

    // Replays over the elites the invariant hook saw: lowering + simplify
    // (`Engine::phenotype`) and hashing + compiling (`Phenotype::build`).
    let elites = std::mem::take(&mut *elites.lock().expect("hook lock"));
    let (mut lower_us, mut compile_us) = (Vec::new(), Vec::new());
    for tree in &elites {
        let t = Instant::now();
        let Ok(eqs) = engine.phenotype(tree) else {
            continue;
        };
        lower_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(Phenotype::build(std::hint::black_box(eqs), true));
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let eval_ms = ev.ns.load(Relaxed) as f64 / 1e6;
    let eval_in_gens_ms = eval_ns_in_gens as f64 / 1e6;
    let busy_ms = ms(report.pool.total_busy());
    let layers = Layers {
        wall: ms(wall),
        engine_self: ms(gen_wall) - busy_ms,
        pool_self: busy_ms - eval_in_gens_ms,
        evaluate: eval_ms,
        calls: ev.calls.load(Relaxed) as f64,
        shorts: ev.shorts.load(Relaxed) as f64,
        steps: ev.steps.load(Relaxed) as f64,
        core_instrs: ev.core_instrs.load(Relaxed) as f64,
        cases: ev.num_cases() as f64,
        cache_hit_rate: report.cache_hit_rate,
        pheno_builds: report.pheno_builds as f64,
        pheno_reuses: report.pheno_reuses as f64,
        test_rmse: test,
        lower_us: stats::mean(&lower_us),
        compile_us: stats::mean(&compile_us),
    };
    (answer(&report.best.tree, train, test), layers, ok)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = crate::child_setups(args)?;
    let (s, secs) = setup();
    setups.push(secs);
    let mut correct = s.manual_train_rmse.is_finite();

    // Untraced phase: the whole run, or its first half when tracing.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let host0 = HostSnap::take();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut answers = Vec::new();
    let mut failed = 0u64;
    // CPU of the searches alone: the answer checks between them run
    // `Gmr::score` and are not the workload.
    let mut cpu_s = 0.0;
    while t0.elapsed() < budget || walls.is_empty() {
        let gp = gp_config(args.seed, walls.len() as u64);
        let cpu0 = stats::process_cpu_s();
        let t = Instant::now();
        let res = s.gmr.run_with_lint(&gp, false);
        walls.push(ms(t.elapsed()));
        cpu_s += stats::process_cpu_s() - cpu0;
        let (_, [train, _, test, _]) = s.gmr.score(&res.tree);
        if !champion_ok(
            [train, test],
            [res.train_rmse, res.test_rmse],
            s.manual_train_rmse,
        ) {
            failed += 1;
        }
        answers.push(answer(&res.tree, res.train_rmse, res.test_rmse));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let host1 = HostSnap::take();
    let n = walls.len();
    let (tail, q) = stats::tail(&walls);
    let mut diag = format!(
        "searches={n} p50_ms={:.1} tail_ms={tail:.1} (q{q:.3}) {}",
        stats::median(&walls),
        stats::host_diag((host0, host1), &setups)
    );

    let mut attempted = n as u64;
    let m = if !args.trace {
        crate::end_to_end([
            stats::median(&setups),
            stats::peak_rss_mb(),
            stats::median(&walls),
            n as f64 / elapsed,
            cpu_s * 1e3 / n as f64,
        ])
    } else {
        crate::install_journal()?;
        let mut traced = Vec::with_capacity(n);
        for (i, want) in answers.iter().enumerate() {
            let (got, layers, ok) = traced_search(&s, &gp_config(args.seed, i as u64));
            if !ok || got != *want {
                failed += 1;
            }
            traced.push(layers);
        }
        attempted += n as u64;
        let dropped = crate::journal_dropped();
        correct &= dropped == 0;
        let avg = |f: fn(&Layers) -> f64| stats::mean(&traced.iter().map(f).collect::<Vec<_>>());
        let wall = avg(|l| l.wall);
        let attributed = avg(|l| l.engine_self) + avg(|l| l.pool_self) + avg(|l| l.evaluate);
        let steps = avg(|l| l.steps);
        let calls = avg(|l| l.calls);
        let traced_p50 = stats::median(&traced.iter().map(|l| l.wall).collect::<Vec<_>>());
        diag.push_str(&format!(
            " traced_p50_ms={traced_p50:.1} journal_dropped={dropped}"
        ));
        crate::layer_metrics(&[
            ("gp.engine.self_ms", "ms", avg(|l| l.engine_self)),
            ("gp.pool.self_ms", "ms", avg(|l| l.pool_self)),
            ("bio.evaluate_ms", "ms", avg(|l| l.evaluate)),
            ("bio.evaluate_calls", "count", calls),
            ("vm.steps", "count", steps),
            ("vm.ns_per_step", "ns", avg(|l| l.evaluate) * 1e6 / steps),
            (
                "vm.core_instrs_per_step",
                "instr",
                avg(|l| l.core_instrs) / calls,
            ),
            ("gp.short_circuit.rate", "ratio", avg(|l| l.shorts) / calls),
            (
                "gp.short_circuit.step_share",
                "ratio",
                steps / (calls * avg(|l| l.cases)),
            ),
            ("gp.cache.hit_rate", "ratio", avg(|l| l.cache_hit_rate)),
            ("gp.pheno.builds", "count", avg(|l| l.pheno_builds)),
            ("gp.pheno.reuses", "count", avg(|l| l.pheno_reuses)),
            (
                "gp.test_rmse",
                "ug/L",
                stats::median(&traced.iter().map(|l| l.test_rmse).collect::<Vec<_>>()),
            ),
            ("tag.lower_us", "us", avg(|l| l.lower_us)),
            ("expr.compile_us", "us", avg(|l| l.compile_us)),
            ("hydro.generate_ms", "ms", s.generate_ms),
            ("unattributed_ms", "ms", wall - attributed),
            ("unattributed.share", "ratio", (wall - attributed) / wall),
            (
                "trace.overhead_ms",
                "ms",
                traced_p50 - stats::median(&walls),
            ),
            ("journal.dropped", "count", dropped as f64),
        ])
    };
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: m,
        diag,
    })
}
