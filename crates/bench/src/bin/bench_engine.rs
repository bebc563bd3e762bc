//! Engine throughput benchmark: evaluation pool + phenotype memo, measured
//! end to end and emitted as machine-readable JSON.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p gmr-bench --bin bench_engine -- [--quick] [--out PATH] [--journal PATH]
//! cargo run --release -p gmr-bench --bin bench_engine -- --validate PATH
//! ```
//!
//! The workload is a *latency-bound* synthetic evaluator: each fitness
//! evaluation sleeps a fixed interval per short-circuit block, modelling a
//! forward integration whose cost is dominated by waiting on memory /
//! solver latency rather than raw arithmetic. That choice is deliberate —
//! CI containers often expose a single core, and a compute-bound workload
//! cannot speed up there no matter how good the scheduler is. A
//! latency-bound one can: sleeping candidates overlap, so the measured
//! speed-up isolates what this benchmark is actually about — the pool's
//! ability to keep `threads` candidates in flight concurrently and claim
//! work dynamically. Compute-bound scaling on real hardware is covered by
//! the Criterion benches (`benches/speedup.rs`).
//!
//! Every thread count runs the identical seeded workload, and the run
//! aborts unless the per-generation best-fitness trajectories are
//! bit-identical and every work counter (evaluations, evaluated steps,
//! cache hits and misses, phenotype builds) is equal across thread counts
//! — the engine's determinism contract, checked on every benchmark run,
//! not just in the test suite. The check is exact, so it cannot flake.
//!
//! The benchmark doubles as the observability overhead gate: the
//! threads=1 workload runs first with the journal *uninstalled* (every
//! span is one relaxed atomic load) and again with it recording, and the
//! emitted JSON carries the throughput delta as `obsv.overhead_pct`.
//! Trajectories must stay bit-identical across that switch too — the
//! instrumentation reads clocks, never the search state.
//!
//! `--validate` re-opens an emitted JSON file and enforces the acceptance
//! gate: schema tag present, determinism flag true, every run's counters
//! equal, threads=4 achieving at least 2× the threads=1 candidate
//! throughput, and journal-on overhead within 2%. `--journal PATH` flushes
//! the run journal to `gmr-journal/v1` JSONL for `gmr-trace`.

use gmr_bench::cli;
use gmr_expr::EvalContext;
use gmr_gp::{Engine, Evaluator, GpConfig, ParamPriors, Phenotype, PoolStats};
use gmr_json::Value;
use gmr_tag::grammar::test_fixtures::tiny_grammar;
use std::time::{Duration, Instant};

const SCHEMA: &str = "gmr-bench-engine/v1";
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const MIN_SPEEDUP_T4: f64 = 2.0;
/// Acceptance ceiling on journal-on vs journal-off throughput loss.
const MAX_OVERHEAD_PCT: f64 = 2.0;
/// Threads=1 repetitions per arm of the overhead comparison (best-of).
const OVERHEAD_REPS: usize = 2;

/// Fit `y = 2x - 1` with a fixed per-block latency. The short-circuit
/// controller is consulted every `CHECK_EVERY` cases; one sleep precedes
/// each block, so a full evaluation costs `blocks × sleep` wall time and a
/// short-circuited one proportionally less — exactly the profile a
/// forward-Euler integration with an expensive RHS would show.
struct SleepyLineFit {
    xs: Vec<f64>,
    ys: Vec<f64>,
    sleep: Duration,
}

const CHECK_EVERY: usize = 8;

impl SleepyLineFit {
    fn new(cases: usize, sleep: Duration) -> Self {
        let xs: Vec<f64> = (0..cases).map(|i| i as f64 / 4.0).collect();
        let ys = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        SleepyLineFit { xs, ys, sleep }
    }
}

impl Evaluator for SleepyLineFit {
    fn num_equations(&self) -> usize {
        1
    }
    fn num_cases(&self) -> usize {
        self.xs.len()
    }
    fn evaluate(&self, ph: &Phenotype, ctl: &mut dyn FnMut(f64, usize) -> bool) -> (f64, bool) {
        let eq = &ph.eqs()[0];
        let comp = ph.compiled();
        let mut scratch = comp.map(|sys| sys.scratch());
        let mut out = [0.0f64];
        let mut sse = 0.0;
        let n = self.xs.len();
        for (i, (&x, &y)) in self.xs.iter().zip(&self.ys).enumerate() {
            if i % CHECK_EVERY == 0 {
                std::thread::sleep(self.sleep); // the modelled integration latency
            }
            let state = [x];
            // tiny_grammar's pool includes Var(0); supply its (constant 0.0)
            // slot so arity-checked compiled programs accept the system.
            let ctx = EvalContext {
                vars: &[0.0],
                state: &state,
            };
            let p = match (&comp, &mut scratch) {
                (Some(sys), Some(scratch)) => {
                    sys.eval_step(&ctx, scratch, &mut out);
                    out[0]
                }
                _ => eq.eval(&ctx),
            };
            let d = p - y;
            sse += d * d;
            let done = i + 1;
            if done % CHECK_EVERY == 0 && done < n {
                let running = (sse / done as f64).sqrt();
                if !ctl(running, done) {
                    return (running, false);
                }
            }
        }
        ((sse / n as f64).sqrt(), true)
    }
}

struct Workload {
    name: &'static str,
    pop_size: usize,
    max_gen: usize,
    cases: usize,
    sleep_us: u64,
    seed: u64,
}

impl Workload {
    fn quick() -> Workload {
        Workload {
            name: "quick",
            pop_size: 24,
            max_gen: 6,
            cases: 32,
            sleep_us: 500,
            seed: 11,
        }
    }
    fn default_scale() -> Workload {
        Workload {
            name: "default",
            pop_size: 40,
            max_gen: 12,
            cases: 64,
            sleep_us: 800,
            seed: 11,
        }
    }
    /// Individuals scored per run — the unit of `candidates_per_sec`:
    /// generation zero's population, then each generation's offspring once
    /// in its evaluation round and once in its local-search round. Pool
    /// work items are not this unit: every such round also derives its
    /// phenotypes in a pool round of its own.
    fn candidates(&self) -> u64 {
        let c = self.cfg(1);
        let offspring = c.pop_size - c.elite;
        let per_gen = offspring * (1 + usize::from(c.local_search_steps > 0));
        (c.pop_size + c.max_gen * per_gen) as u64
    }

    fn cfg(&self, threads: usize) -> GpConfig {
        GpConfig {
            pop_size: self.pop_size,
            max_gen: self.max_gen,
            min_size: 2,
            max_size: 10,
            local_search_steps: 1,
            es_threshold: Some(1.1),
            threads,
            seed: self.seed,
            ..GpConfig::default()
        }
    }
}

#[derive(Clone)]
struct RunResult {
    threads: usize,
    wall: Duration,
    candidates: u64,
    evaluations: u64,
    evaluated_steps: u64,
    short_circuited: u64,
    cache_hits: u64,
    cache_misses: u64,
    pheno_builds: u64,
    pheno_reuses: u64,
    compiles: u64,
    pool: PoolStats,
    trajectory: Vec<u64>,
}

/// The work counters every run of one workload must reproduce exactly.
const COUNTERS: [&str; 8] = [
    "evaluations",
    "evaluated_steps",
    "short_circuited",
    "cache_hits",
    "cache_misses",
    "pheno_builds",
    "pheno_reuses",
    "compiles",
];

impl RunResult {
    fn candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Values of [`COUNTERS`], in order.
    fn counters(&self) -> [u64; 8] {
        [
            self.evaluations,
            self.evaluated_steps,
            self.short_circuited,
            self.cache_hits,
            self.cache_misses,
            self.pheno_builds,
            self.pheno_reuses,
            self.compiles,
        ]
    }
}

fn run_once(w: &Workload, threads: usize) -> RunResult {
    let (g, _) = tiny_grammar();
    let problem = SleepyLineFit::new(w.cases, Duration::from_micros(w.sleep_us));
    let priors = ParamPriors::new([(2.0, 0.0, 4.0), (0.5, 0.0, 1.0)]);
    let engine = Engine::new(&g, &problem, priors, w.cfg(threads));
    let start = Instant::now();
    let report = engine.run();
    let wall = start.elapsed();
    RunResult {
        threads,
        wall,
        candidates: w.candidates(),
        evaluations: report.evaluations,
        evaluated_steps: report.evaluated_steps,
        short_circuited: report.short_circuited,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        pheno_builds: report.pheno_builds,
        pheno_reuses: report.pheno_reuses,
        compiles: report.compiles,
        pool: report.pool,
        trajectory: report.history.iter().map(|s| s.best.to_bits()).collect(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The journal-on vs journal-off comparison at threads=1.
struct ObsvSection {
    overhead_pct: f64,
    disabled_cps: f64,
    enabled_cps: f64,
    journal_events: usize,
    journal_dropped: u64,
}

fn render_json(
    w: &Workload,
    runs: &[RunResult],
    deterministic: bool,
    speedup_t4: f64,
    obsv: &ObsvSection,
) -> String {
    let base_cps = runs[0].candidates_per_sec();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"scale\": \"{}\",\n", w.name));
    out.push_str(&format!(
        "  \"workload\": {{\"pop_size\": {}, \"max_gen\": {}, \"cases\": {}, \"sleep_us_per_block\": {}, \"seed\": {}}},\n",
        w.pop_size, w.max_gen, w.cases, w.sleep_us, w.seed
    ));
    out.push_str(&format!(
        "  \"deterministic_across_threads\": {deterministic},\n"
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let cps = r.candidates_per_sec();
        out.push_str(&format!(
            "    {{\"threads\": {}, \"wall_ms\": {:.3}, \"candidates\": {}, \
             \"candidates_per_sec\": {:.3}, \"speedup_vs_1\": {:.3}, \
             \"evaluations\": {}, \"evaluated_steps\": {}, \"short_circuited\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"pheno_builds\": {}, \"pheno_reuses\": {}, \"compiles\": {},\n",
            r.threads,
            ms(r.wall),
            r.candidates,
            cps,
            cps / base_cps,
            r.evaluations,
            r.evaluated_steps,
            r.short_circuited,
            r.cache_hits,
            r.cache_misses,
            r.pheno_builds,
            r.pheno_reuses,
            r.compiles,
        ));
        out.push_str(&format!(
            "     \"pool\": {{\"rounds\": {}, \"busy_ms\": {:.3}, \"idle_ms\": {:.3}, \"workers\": [",
            r.pool.rounds,
            ms(r.pool.total_busy()),
            ms(r.pool.total_idle()),
        ));
        for (j, ws) in r.pool.workers.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"worker\": {}, \"candidates\": {}, \"claims\": {}, \"busy_ms\": {:.3}, \"idle_ms\": {:.3}}}",
                ws.worker, ws.candidates, ws.claims, ms(ws.busy), ms(ws.idle)
            ));
        }
        out.push_str("]}}");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"obsv\": {{\"overhead_pct\": {:.3}, \"disabled_candidates_per_sec\": {:.3}, \
         \"enabled_candidates_per_sec\": {:.3}, \"journal_events\": {}, \"journal_dropped\": {}}},\n",
        obsv.overhead_pct,
        obsv.disabled_cps,
        obsv.enabled_cps,
        obsv.journal_events,
        obsv.journal_dropped,
    ));
    out.push_str(&format!("  \"speedup_threads4\": {speedup_t4:.3}\n"));
    out.push_str("}\n");
    out
}

/// Enforce the acceptance gate on an emitted file. Returns the failures.
/// The document must strict-reparse under `gmr_json`, and every gate
/// reads the parsed document: a truncated or hand-mangled baseline fails
/// loudly, and spacing is the writer's business.
fn validate(src: &str) -> Vec<String> {
    let doc = match gmr_json::parse(src) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not strict JSON: {e}")],
    };
    let mut errs = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("missing schema tag {SCHEMA:?}"));
    }
    for key in ["workload", "runs", "obsv"] {
        if doc.get(key).is_none() {
            errs.push(format!("missing key {key:?}"));
        }
    }
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap_or(&[]);
    for (i, run) in runs.iter().enumerate() {
        for key in ["candidates_per_sec", "speedup_vs_1", "pool"] {
            if run.get(key).is_none() {
                errs.push(format!("run {i}: missing key {key:?}"));
            }
        }
        if run.get("pool").is_some_and(|p| p.get("workers").is_none()) {
            errs.push(format!("run {i}: missing key \"workers\""));
        }
    }
    if doc.get("deterministic_across_threads") != Some(&Value::Bool(true)) {
        errs.push("deterministic_across_threads is not true".into());
    }
    match doc.get("speedup_threads4").and_then(Value::as_f64) {
        Some(s) if s >= MIN_SPEEDUP_T4 => {}
        Some(s) => errs.push(format!(
            "speedup_threads4 {s:.3} below the {MIN_SPEEDUP_T4}x gate"
        )),
        None => errs.push("speedup_threads4 missing or not a number".into()),
    }
    let overhead = doc.get("obsv").and_then(|o| o.get("overhead_pct"));
    match overhead.and_then(Value::as_f64) {
        Some(o) if o <= MAX_OVERHEAD_PCT => {}
        Some(o) => errs.push(format!(
            "obsv overhead {o:.3}% above the {MAX_OVERHEAD_PCT}% gate"
        )),
        None => errs.push("obsv.overhead_pct missing or not a number".into()),
    }
    let threads: Vec<u64> = runs
        .iter()
        .filter_map(|r| r.get("threads")?.as_u64())
        .collect();
    for t in THREAD_COUNTS {
        if !threads.contains(&(t as u64)) {
            errs.push(format!("no run entry for threads={t}"));
        }
    }
    errs.extend(counter_mismatches(runs));
    errs
}

/// Every run of the workload must report the same [`COUNTERS`]; one
/// failure per counter that is missing or differs from the first run's.
fn counter_mismatches(runs: &[Value]) -> Vec<String> {
    COUNTERS
        .iter()
        .filter_map(|key| {
            let vals: Vec<Option<u64>> = runs
                .iter()
                .map(|r| r.get(key).and_then(Value::as_u64))
                .collect();
            let same = vals.iter().all(|v| v.is_some() && *v == vals[0]);
            (!same).then(|| format!("runs disagree on {key:?} (or lack it): {vals:?}"))
        })
        .collect()
}

/// The arguments part of the usage line.
const USAGE: &str =
    "[--quick] [--out PATH] [--journal PATH] [--validate PATH] [--quiet | -q] [-v | --verbose]";

fn main() {
    let args = cli::BenchArgs::from_env(
        USAGE,
        &["--validate", "--out", "--journal"],
        &["--quick", "--quiet", "-q", "-v", "--verbose"],
    );
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

    let w = if args.has("--quick") {
        Workload::quick()
    } else {
        Workload::default_scale()
    };
    let out_path = args.value("--out").unwrap_or("BENCH_engine.json");
    let journal_path = args.value("--journal");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    gmr_obsv::log::set_level(gmr_obsv::log::level_from_args(&argv));

    gmr_obsv::info!(
        "bench_engine: scale={} pop={} gen={} cases={} sleep={}us threads={THREAD_COUNTS:?}",
        w.name,
        w.pop_size,
        w.max_gen,
        w.cases,
        w.sleep_us
    );

    // Overhead arm 1: journal uninstalled — the compiled-in spans cost one
    // relaxed atomic load each. Must run before `gmr_obsv::init`.
    let disabled: Vec<RunResult> = (0..OVERHEAD_REPS).map(|_| run_once(&w, 1)).collect();

    // Everything from here on records into the journal.
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    gmr_obsv::emit(gmr_obsv::Event::Note {
        name: "bench_engine",
        msg: format!(
            "scale={} pop={} gen={} cases={} sleep_us={}",
            w.name, w.pop_size, w.max_gen, w.cases, w.sleep_us
        ),
    });

    // Overhead arm 2: same threads=1 workload with the journal recording.
    let enabled_t1: Vec<RunResult> = (0..OVERHEAD_REPS).map(|_| run_once(&w, 1)).collect();
    let best_cps = |rs: &[RunResult]| {
        rs.iter()
            .map(RunResult::candidates_per_sec)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let disabled_cps = best_cps(&disabled);
    let enabled_cps = best_cps(&enabled_t1);
    let overhead_pct = 100.0 * (disabled_cps / enabled_cps - 1.0);

    let mut runs: Vec<RunResult> = Vec::with_capacity(THREAD_COUNTS.len());
    for &t in &THREAD_COUNTS {
        if t == 1 {
            // Reuse the faster journal-on threads=1 run as the baseline row.
            let best = enabled_t1
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.candidates_per_sec().total_cmp(&b.candidates_per_sec()))
                .map(|(i, _)| i)
                .unwrap_or(0);
            runs.push(enabled_t1[best].clone());
        } else {
            runs.push(run_once(&w, t));
        }
    }

    // The determinism contract covers the obsv switch too: journal-off and
    // journal-on runs at every thread count must agree bit for bit, and do
    // exactly the same work.
    let deterministic = runs
        .iter()
        .chain(&disabled)
        .chain(&enabled_t1)
        .all(|r| r.trajectory == runs[0].trajectory && r.counters() == runs[0].counters());
    let base = runs[0].candidates_per_sec();
    let speedup_t4 = runs
        .iter()
        .find(|r| r.threads == 4)
        .map(|r| r.candidates_per_sec() / base)
        .unwrap_or(0.0);

    for r in &runs {
        gmr_obsv::info!(
            "  threads={}: {:.1} ms wall, {} candidates ({:.1}/s, {:.2}x), {:.1} ms idle",
            r.threads,
            ms(r.wall),
            r.candidates,
            r.candidates_per_sec(),
            r.candidates_per_sec() / base,
            ms(r.pool.total_idle()),
        );
    }
    gmr_obsv::info!(
        "  obsv overhead at threads=1: {overhead_pct:+.2}% ({disabled_cps:.1}/s off, {enabled_cps:.1}/s on)"
    );
    if !deterministic {
        gmr_obsv::warn!(
            "FAIL: fitness trajectories or work counters diverged across thread counts / obsv"
        );
    }

    let (journal_events, journal_dropped) = gmr_obsv::global()
        .map(|j| (j.len(), j.dropped()))
        .unwrap_or((0, 0));
    let obsv = ObsvSection {
        overhead_pct,
        disabled_cps,
        enabled_cps,
        journal_events,
        journal_dropped,
    };
    let json = render_json(&w, &runs, deterministic, speedup_t4, &obsv);
    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    gmr_obsv::info!("wrote {out_path} (speedup_threads4 = {speedup_t4:.2}x)");

    if let Some(path) = journal_path {
        match gmr_obsv::write_jsonl(path) {
            Ok(()) => gmr_obsv::info!("wrote journal {path} ({journal_events} events)"),
            Err(e) => {
                eprintln!("cannot write journal {path}: {e}");
                std::process::exit(2);
            }
        }
    }

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

    fn tiny_run(threads: usize) -> RunResult {
        RunResult {
            threads,
            wall: Duration::from_millis(100),
            candidates: 288,
            evaluations: 800,
            evaluated_steps: 40_000,
            short_circuited: 120,
            cache_hits: 40,
            cache_misses: 760,
            pheno_builds: 700,
            pheno_reuses: 260,
            compiles: 700,
            pool: PoolStats {
                workers: (0..threads)
                    .map(|worker| gmr_gp::WorkerStats {
                        worker,
                        candidates: 960,
                        claims: 12,
                        ..Default::default()
                    })
                    .collect(),
                rounds: 24,
            },
            trajectory: vec![1.0f64.to_bits(); 6],
        }
    }

    #[test]
    fn rendered_json_strict_reparses_and_validates() {
        let runs: Vec<RunResult> = THREAD_COUNTS.iter().map(|&t| tiny_run(t)).collect();
        let obsv = ObsvSection {
            overhead_pct: 0.4,
            disabled_cps: 9600.0,
            enabled_cps: 9560.0,
            journal_events: 512,
            journal_dropped: 0,
        };
        let json = render_json(&Workload::quick(), &runs, true, 3.2, &obsv);
        gmr_json::parse(&json).expect("strict parse");
        assert_eq!(validate(&json), Vec::<String>::new());
        // The gates read the parsed document, not the writer's spacing.
        let compact = json.replace(": ", ":");
        assert_ne!(compact, json);
        assert_eq!(validate(&compact), Vec::<String>::new());
        assert!(validate("{\"schema\": ")
            .iter()
            .any(|e| e.contains("not strict JSON")));
    }

    #[test]
    fn validate_requires_equal_counters_across_runs() {
        let mut runs: Vec<RunResult> = THREAD_COUNTS.iter().map(|&t| tiny_run(t)).collect();
        runs[2].evaluations += 1;
        runs[1].cache_hits -= 1;
        let obsv = ObsvSection {
            overhead_pct: 0.4,
            disabled_cps: 9600.0,
            enabled_cps: 9560.0,
            journal_events: 512,
            journal_dropped: 0,
        };
        let errs = validate(&render_json(&Workload::quick(), &runs, true, 3.2, &obsv));
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("\"evaluations\""), "{errs:?}");
        assert!(errs[1].contains("\"cache_hits\""), "{errs:?}");
    }

    #[test]
    fn candidates_count_individuals_per_round() {
        assert_eq!(Workload::quick().candidates(), 288);
        assert_eq!(Workload::default_scale().candidates(), 952);
    }
}
