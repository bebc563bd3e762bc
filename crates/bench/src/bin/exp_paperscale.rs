//! GMR at the paper's Appendix B engine settings (population 200,
//! 100 generations, 5 local-search steps), with a configurable number of
//! independent runs — the paper uses 60; pass `--runs N` (default 8).
//!
//! Usage: `cargo run --release -p gmr-bench --bin exp_paperscale -- [--runs N]`

use gmr_bench::{cli, dataset, Scale};
use gmr_core::{Gmr, GmrConfig};
use gmr_gp::GpConfig;

fn main() {
    let (obsv, args) = cli::init(cli::Flags::Runs);
    let runs = args.runs.unwrap_or(8);

    let scale = Scale::default_scale();
    let ds = dataset(&scale);
    let gmr = Gmr::new(&ds);

    let gp = GpConfig {
        pop_size: 200,
        max_gen: 100,
        local_search_steps: 5,
        sigma_ramp_last: 20,
        threads: scale.threads,
        seed: 20260708,
        ..GpConfig::default()
    };
    gmr_obsv::info!(
        "paper-scale GMR: pop {} × gen {} × LS {} × {} runs (paper: 60 runs)",
        gp.pop_size,
        gp.max_gen,
        gp.local_search_steps,
        runs
    );
    let t0 = std::time::Instant::now();
    let mut results = gmr.run_many(&GmrConfig {
        gp,
        runs,
        ..GmrConfig::default()
    });
    results.sort_by(|a, b| a.test_rmse.total_cmp(&b.test_rmse));

    println!("\n=== GMR at paper engine settings ({runs} runs) ===");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
        "run", "train RMSE", "train MAE", "test RMSE", "test MAE", "size", "evals"
    );
    for (i, r) in results.iter().enumerate() {
        println!(
            "{:>4} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>8} {:>10}",
            i + 1,
            r.train_rmse,
            r.train_mae,
            r.test_rmse,
            r.test_mae,
            r.tree.size(),
            r.report.evaluations
        );
    }
    let best = &results[0];
    println!(
        "\nbest (paper protocol, smallest test RMSE): train {:.3}/{:.3}, test {:.3}/{:.3}",
        best.train_rmse, best.train_mae, best.test_rmse, best.test_mae
    );
    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
    println!("\n=== Best revised model ===");
    print!("{}", best.render(&gmr.grammar));
    cli::write_report("paperscale", &best.report);
    cli::write_artifact("paperscale", best, 20260708);
    cli::finish_obsv(&obsv);
}
