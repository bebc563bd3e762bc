//! Ablation: measure each documented engine deviation (DESIGN.md) by
//! toggling it back to the paper's letter and re-running the same GMR
//! search.
//!
//! Usage: `cargo run --release -p gmr-bench --bin exp_ablation [--quick|--full]`
//!
//! Rows:
//! * `default` — the library configuration;
//! * `paper-gauss` — Gaussian mutation resamples *all* constants
//!   (`p_param_each = 1.0`);
//! * `no-ls-tweak` — local search limited to the paper's
//!   insertion/deletion moves;
//! * `mean-init` — generation zero pinned at the prior means;
//! * `eager-es` — the paper's running-RMSE short-circuit surrogate at
//!   threshold 1.0;
//! * `paper-letter` — all four at once (the paper's exact operator set at
//!   this budget).

use gmr_bench::{cli, dataset};
use gmr_core::{Gmr, GmrConfig};
use gmr_gp::short_circuit::Extrapolate;
use gmr_gp::GpConfig;

type Tweak = Box<dyn Fn(&mut GpConfig)>;

fn main() {
    let (obsv, args) = cli::init(cli::Flags::Scale);
    let scale = args.scale();
    gmr_obsv::info!("scale: {} (use --quick / --full to change)", scale.name);
    let ds = dataset(&scale);
    let gmr = Gmr::new(&ds);
    let runs = scale.gmr_runs.clamp(2, 4);

    let variants: Vec<(&'static str, Tweak)> = vec![
        ("default", Box::new(|_: &mut GpConfig| {})),
        (
            "paper-gauss",
            Box::new(|c: &mut GpConfig| c.p_param_each = 1.0),
        ),
        (
            "no-ls-tweak",
            Box::new(|c: &mut GpConfig| c.ls_param_tweak = false),
        ),
        (
            "mean-init",
            Box::new(|c: &mut GpConfig| c.init_params_from_prior = false),
        ),
        (
            "eager-es",
            Box::new(|c: &mut GpConfig| c.extrapolate = Extrapolate::RunningRmse),
        ),
        (
            "paper-letter",
            Box::new(|c: &mut GpConfig| {
                c.p_param_each = 1.0;
                c.ls_param_tweak = false;
                c.init_params_from_prior = false;
                c.extrapolate = Extrapolate::RunningRmse;
            }),
        ),
    ];

    println!("\n=== Ablation of documented engine deviations ({runs} runs each) ===");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "Variant", "best train", "best test", "mean train", "mean test"
    );
    for (label, tweak) in variants {
        gmr_obsv::info!("running {label}…");
        let mut gp = scale.gp_config(777);
        tweak(&mut gp);
        let cfg = GmrConfig {
            gp,
            runs,
            ..GmrConfig::default()
        };
        let results = gmr.run_many(&cfg);
        let n = results.len() as f64;
        let best = &results[0];
        cli::write_report(
            &format!("ablation-{}-{}", scale.name, cli::slug(label)),
            &best.report,
        );
        let mean_train = results.iter().map(|r| r.train_rmse).sum::<f64>() / n;
        let mean_test = results.iter().map(|r| r.test_rmse).sum::<f64>() / n;
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            label, best.train_rmse, best.test_rmse, mean_train, mean_test
        );
    }
    println!(
        "\nReading: each row toggles one deviation back to the paper's letter.\n\
         Larger numbers than 'default' quantify how much that choice buys at\n\
         this budget; 'paper-letter' is the paper's exact operator set, which\n\
         needs its original 7.2M-evaluation budget to shine."
    );
    cli::finish_obsv(&obsv);
}
