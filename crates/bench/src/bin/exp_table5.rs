//! Table V + Figure 1: forecasting accuracy of all fifteen methods.
//!
//! Usage: `cargo run --release -p gmr-bench --bin exp_table5 [--quick|--full]`
//!
//! Reproduces the paper's headline comparison: train (1996–2005) and test
//! (2006–2008) RMSE/MAE for the knowledge-driven, data-driven, calibration
//! and revision method families on the synthetic Nakdong dataset, plus the
//! Fig. 1 margins (GMR vs. runner-up, GMR vs. best calibration).

use gmr_bench::methods::run_all;
use gmr_bench::table::{render_csv, render_fig1, render_table5};
use gmr_bench::{cli, dataset};

fn main() {
    let (obsv, args) = cli::init(cli::Flags::Scale);
    let scale = args.scale();
    gmr_obsv::info!("scale: {} (use --quick / --full to change)", scale.name);
    let ds = dataset(&scale);
    gmr_obsv::info!(
        "dataset: {} days over {} stations, train {} days, test {} days",
        ds.days,
        ds.stations.len(),
        ds.train.len(),
        ds.test.len()
    );
    let (rows, finalists) = run_all(&ds, &scale, 20260708);
    println!("\n=== Table V: forecasting accuracy ===");
    print!("{}", render_table5(&rows));
    println!("\n=== Figure 1: margins ===");
    print!("{}", render_fig1(&rows));
    if std::fs::create_dir_all("results").is_ok() {
        let path = format!("results/table5-{}.csv", scale.name);
        if std::fs::write(&path, render_csv(&rows)).is_ok() {
            gmr_obsv::info!("wrote {path}");
        }
    }
    if let Some(best) = finalists.first() {
        cli::write_report(&format!("table5-{}", scale.name), &best.report);
        cli::write_artifact(&format!("table5-{}", scale.name), best, 20260708);
        println!("\n=== Best revised model (GMR) ===");
        let gmr = gmr_core::Gmr::new(&ds);
        print!("{}", best.render(&gmr.grammar));
    }
    cli::finish_obsv(&obsv);
}
