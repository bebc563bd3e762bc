//! Robustness of the headline result to the data-generating regime.
//!
//! Usage: `cargo run --release -p gmr-bench --bin exp_sensitivity [--quick]`
//!
//! The paper's claim — knowledge-guided revision beats pure calibration —
//! is evaluated here on a *synthetic* river (see DESIGN.md). This
//! experiment checks the claim is not an artifact of one generator setting:
//! it sweeps the observation-noise level and the latent (unobservable)
//! process-noise level, and re-measures GMR against the strongest single
//! calibration baseline (SCE-UA) on each regenerated world.
//!
//! Expected shape: the margin narrows as noise grows (everyone approaches
//! the noise floor) but the *ordering* — revision ≤ calibration on test
//! RMSE — holds across the sweep.

use gmr_baselines::calibrators::SceUa;
use gmr_baselines::objective::CalibrationProblem;
use gmr_baselines::Calibrator;
use gmr_bench::cli;
use gmr_bio::RiverProblem;
use gmr_core::{Gmr, GmrConfig};
use gmr_hydro::{generate, SyntheticConfig};

fn main() {
    let (obsv, args) = cli::init(cli::Flags::Quick);
    let quick = args.quick;
    let (end_year, train_end, runs, budget) = if quick {
        (1999, 1998, 2, 400)
    } else {
        (2008, 2005, 3, 2500)
    };

    let cells: [(&str, f64, f64); 4] = [
        ("baseline", 0.10, 0.07),
        ("low-noise", 0.05, 0.03),
        ("noisy-obs", 0.25, 0.07),
        ("wild-latent", 0.10, 0.15),
    ];

    println!("\n=== Sensitivity of the revision-vs-calibration margin ===");
    println!(
        "{:<12} {:>9} {:>9} {:>12} {:>14} {:>10}",
        "Regime", "obs sd", "proc sd", "GMR test", "SCE-UA test", "margin"
    );
    for (label, obs, proc) in cells {
        gmr_obsv::info!("regime {label}…");
        let ds = generate(&SyntheticConfig {
            end_year,
            train_end_year: train_end,
            obs_noise: obs,
            process_noise: proc,
            ..SyntheticConfig::default()
        });
        let gmr = Gmr::new(&ds);
        let mut gp = gmr_gp::GpConfig {
            pop_size: if quick { 24 } else { 80 },
            max_gen: if quick { 8 } else { 40 },
            local_search_steps: 2,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 7,
            ..gmr_gp::GpConfig::default()
        };
        gp.sigma_ramp_last = (gp.max_gen / 5).max(1);
        let mut results = gmr.run_many(&GmrConfig {
            gp,
            runs,
            ..GmrConfig::default()
        });
        results.sort_by(|a, b| a.test_rmse.total_cmp(&b.test_rmse));
        let gmr_test = results[0].test_rmse;
        cli::write_report(
            &format!("sensitivity-{}", cli::slug(label)),
            &results[0].report,
        );

        let train = RiverProblem::from_dataset(&ds, ds.train);
        let test = RiverProblem::from_dataset(&ds, ds.test);
        let cp = CalibrationProblem::new(train);
        let out = SceUa::default().calibrate(&cp, budget, 7);
        let cal_test = test.rmse(&cp.instantiate(&out.theta));

        println!(
            "{:<12} {:>9.2} {:>9.2} {:>12.3} {:>14.3} {:>9.1}%",
            label,
            obs,
            proc,
            gmr_test,
            cal_test,
            100.0 * (cal_test - gmr_test) / cal_test
        );
    }
    println!(
        "\nmargin = how much lower GMR's test RMSE is than the calibrated\n\
         expert model's; positive across the sweep = the headline ordering\n\
         is not an artifact of one generator configuration."
    );
    cli::finish_obsv(&obsv);
}
