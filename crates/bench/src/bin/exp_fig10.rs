//! Figure 10: mean runtime per individual under each combination of the
//! three §III-D speed-up techniques — Tree Caching (TC), Evaluation
//! Short-circuiting (ES) and Runtime Compilation (RC).
//!
//! Usage: `cargo run --release -p gmr-bench --bin exp_fig10 [--quick|--full]`
//!
//! Methodology: a *fixed* evaluation workload ([`gmr_bench::fig10`]) is
//! generated once — a pool of random revisions plus repeated draws from
//! it, mimicking the revisit pattern a GP population produces (elites,
//! replication, cache-able re-evaluations) — and every combination
//! evaluates the identical sequence single-threaded. ES uses the paper's
//! running-RMSE surrogate with threshold 1.0, with the baseline forming
//! naturally as the sequence progresses. Absolute speed-ups depend on
//! workload size (the paper reports 607× at full scale on an 80-core
//! server); the reproduced shape is each technique helping on its own.
//! Under ES, RC costs more than it saves here: an aborted individual
//! simulates too few days to repay its compilation (see EXPERIMENTS.md).

use gmr_bench::fig10::{self, Workload, COMBOS};
use gmr_bench::table::render_kv;
use gmr_bench::{cli, dataset};
use gmr_core::{Gmr, RiverEvaluator};

fn main() {
    let (obsv, args) = cli::init(cli::Flags::Scale);
    let scale = args.scale();
    gmr_obsv::info!("scale: {} (use --quick / --full to change)", scale.name);
    let ds = dataset(&scale);
    let gmr = Gmr::new(&ds);
    let evaluator = RiverEvaluator::new(gmr.train.clone());

    let workload = Workload::new(&gmr, &scale);
    gmr_obsv::info!(
        "workload: {} evaluations over {} unique individuals, {} fitness cases each",
        workload.evaluations(),
        workload.unique(),
        gmr.train.num_cases()
    );

    let mut rows: Vec<(String, String)> = Vec::new();
    let mut baseline_per_ind = None;
    println!("\n=== Figure 10: mean runtime per individual ===");
    for combo in &COMBOS {
        let run = fig10::run(&gmr, &evaluator, &workload, combo);
        let per_ind = run.elapsed.as_secs_f64() / workload.evaluations() as f64;
        let speedup = match baseline_per_ind {
            None => {
                baseline_per_ind = Some(per_ind);
                1.0
            }
            Some(b) => b / per_ind,
        };
        rows.push((
            combo.label.to_string(),
            format!("{:>10.3} ms/ind   {:>7.1}x speedup", 1e3 * per_ind, speedup),
        ));
        gmr_obsv::info!(
            "{}: {:.3} ms/ind ({} fully evaluated, checksum {:.1})",
            combo.label,
            1e3 * per_ind,
            run.full,
            run.checksum
        );
    }
    print!("{}", render_kv("speedup combinations", &rows));
    println!(
        "\nNote: absolute speed-ups depend on workload size and hardware; the paper\n\
         reports 607x for TC+ES+RC at full scale on an 80-core server. Each technique\n\
         helps on its own; under ES, compiling an individual that aborts after a few\n\
         checkpoints costs more than it saves, so RC adds nothing on top of TC+ES."
    );
    cli::finish_obsv(&obsv);
}
