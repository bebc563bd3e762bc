//! End-to-end and per-layer benchmark of the GMR reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gmr_search --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare OLD NEW
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md`). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod fleet;
mod gmr_search;
mod report;
mod serve;
mod stats;
mod trace;

use report::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["gmr_search", "serve_simulate", "serve_sweep"];

/// The end-to-end metrics an untraced run prints, on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
];

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not run a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("gp.engine.self_ms", "ms"),
    ("gp.pool.self_ms", "ms"),
    ("bio.evaluate_ms", "ms"),
    ("bio.evaluate_calls", "count"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("vm.core_instrs_per_step", "instr"),
    ("gp.short_circuit.rate", "ratio"),
    ("gp.short_circuit.step_share", "ratio"),
    ("gp.cache.hit_rate", "ratio"),
    ("gp.pheno.builds", "count"),
    ("gp.pheno.reuses", "count"),
    ("gp.test_rmse", "ug/L"),
    ("tag.lower_us", "us"),
    ("expr.compile_us", "us"),
    ("hydro.generate_ms", "ms"),
    ("registry.admit_ms", "ms"),
    ("scn.admit_ms", "ms"),
    ("client.self_ms", "ms"),
    ("client.late_ms", "ms"),
    ("gateway.self_ms", "ms"),
    ("server.self_ms", "ms"),
    ("batch.wait_ms", "ms"),
    ("batch.width_mean", "count"),
    ("vm.sim_ms", "ms"),
    ("batch.lockstep_ms", "ms"),
    ("batch.lockstep2_ms", "ms"),
    ("json.parse_us", "us"),
    ("registry.hot_hits", "count"),
    ("registry.hot_misses", "count"),
    ("serve.shed", "count"),
    ("scn.sweep_ms", "ms"),
    ("scn.variant_rows_ms", "ms"),
    ("vm.ensemble_ms", "ms"),
    ("scn.render_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed.share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("journal.dropped", "count"),
];

/// Journal capacity for traced runs: far above the events a run emits, so
/// nothing is dropped (a traced run fails if anything is).
const JOURNAL_CAPACITY: usize = 1 << 21;

/// Set-up repetitions per run, each in a fresh child process so that only
/// one set-up's memory ever lives in the measuring process (its `VmHWM`
/// is `peak_rss_mb`). `setup_s` is the median over these and the run's own
/// set-up.
const SETUP_CHILDREN: usize = 6;

/// One run's command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Time the workload's set-up in [`SETUP_CHILDREN`] child processes (this
/// binary with `--setup-only`), one after another, waiting for each.
pub fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--seconds", "1", "--trace", "0", "--setup-only"])
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up child failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

/// `--setup-only`: run the workload's set-up once and print its time.
fn setup_only(args: &Args) -> Result<f64, String> {
    Ok(match args.workload.as_str() {
        "gmr_search" => gmr_search::setup().1,
        _ => serve::setup(args.seed)?.1.total_s,
    })
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Host-noise diagnostics and sample counts, printed beside the
    /// metrics; never used to drop or repeat a run.
    pub diag: String,
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Install the `gmr_obsv` journal (traced runs only; the untraced phase of
/// a traced run has already finished when this is called).
pub fn install_journal() -> Result<(), String> {
    if gmr_obsv::init(JOURNAL_CAPACITY) {
        Ok(())
    } else {
        Err("journal unavailable (gmr-obsv built without `enabled`)".into())
    }
}

pub fn journal_dropped() -> u64 {
    gmr_obsv::global().map_or(0, |j| j.dropped())
}

/// The end-to-end metrics, values in [`END_TO_END`] order.
pub fn end_to_end(values: [f64; 5]) -> Metrics {
    let mut m = Metrics::default();
    for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
        m.add(name, unit, v);
    }
    m
}

/// The full per-layer metric list, filled from `values` (0 elsewhere).
pub fn layer_metrics(values: &[(&'static str, &'static str, f64)]) -> Metrics {
    for (name, unit, _) in values {
        debug_assert!(
            PER_LAYER.contains(&(*name, *unit)),
            "{name} [{unit}] is not a listed layer metric"
        );
    }
    let mut m = Metrics::default();
    for &(name, unit) in PER_LAYER {
        let v = values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |x| x.2);
        m.add(name, unit, v);
    }
    m
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = flag("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where traced runs write their layer files and journals: inside the
/// benchmark's own directory of the checkout it was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_traced(args: &Args, metrics: &Metrics) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let layers = dir.join(format!("{stem}.layers.json"));
    std::fs::write(
        &layers,
        report::layer_file(&args.workload, args.seed, metrics),
    )
    .map_err(|e| format!("{}: {e}", layers.display()))?;
    let journal = dir.join(format!("{stem}.journal.jsonl"));
    gmr_obsv::write_jsonl(&journal.to_string_lossy())
        .map_err(|e| format!("{}: {e}", journal.display()))?;
    Ok(layers)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, old, new] = argv.as_slice() else {
            eprintln!("usage: compare OLD NEW   (layer files or directories of them)");
            return ExitCode::from(2);
        };
        return match (
            report::load_layers(Path::new(old)),
            report::load_layers(Path::new(new)),
        ) {
            (Ok(a), Ok(b)) => {
                print!("{}", report::compare(&a, &b));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if argv.iter().any(|a| a == "--setup-only") {
        return match setup_only(&args) {
            Ok(secs) => {
                println!("setup_s {secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match args.workload.as_str() {
        "gmr_search" => gmr_search::run(&args),
        "serve_simulate" => serve::run_simulate(&args),
        _ => serve::run_sweep_workload(&args),
    };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut correct = out.correct;
    println!(
        "# {} seed={} trace={} {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.diag
    );
    for m in &out.metrics.0 {
        println!("#   {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        match write_traced(&args, &out.metrics) {
            Ok(p) => println!("# layers written to {}", p.display()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                correct = false;
            }
        }
    }
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(report::valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    /// `BENCHMARK.json` at the repository root lists exactly the workloads
    /// and metrics (names and units, in order) this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = gmr_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let pairs = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(gmr_json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(gmr_json::Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
