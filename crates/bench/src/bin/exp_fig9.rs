//! Figure 9 + the §IV-E case study: variable selectivity among the best
//! models, perturbation-based correlation signs, and the revisions GMR
//! actually made (cf. eqs. 7–8).
//!
//! Usage: `cargo run --release -p gmr-bench --bin exp_fig9 [--quick|--full]`

use gmr_bench::{cli, dataset};
use gmr_bio::RiverProblem;
use gmr_core::{extension_usage, perturb_correlation, selectivity, Correlation, Gmr, GmrConfig};
use gmr_hydro::vars::{self, VALK, VCD, VDO, VLGT, VPH, VTMP};

fn main() {
    let (obsv, args) = cli::init(cli::Flags::Scale);
    let scale = args.scale();
    gmr_obsv::info!("scale: {} (use --quick / --full to change)", scale.name);
    let ds = dataset(&scale);
    let gmr = Gmr::new(&ds);

    // The paper analyses the 50 best models from its 60 runs; we analyse
    // however many finalists the scale affords.
    let runs = scale.gmr_runs.max(2);
    gmr_obsv::info!("running GMR {} times…", runs);
    let cfg = GmrConfig {
        gp: scale.gp_config(909),
        runs,
        ..GmrConfig::default()
    };
    let results = gmr.run_many(&cfg);
    let keep = results.len().min(50);
    let finalists = &results[..keep];

    let models: Vec<Vec<gmr_expr::Expr>> = finalists.iter().map(|r| r.equations.clone()).collect();
    let fig9_vars = [VLGT, VTMP, VPH, VALK, VCD, VDO];
    let sel = selectivity(&models, &fig9_vars);

    let train = RiverProblem::from_dataset(&ds, ds.train);
    println!("\n=== Figure 9: selectivity among the {keep} best models ===");
    println!("{:<6} {:>12} {:>16}", "Var", "Selected %", "Correlation");
    for (v, s) in fig9_vars.iter().zip(&sel) {
        // Majority correlation sign across every finalist that uses the
        // variable (as the paper aggregates over its 50 best models).
        let (mut pos, mut neg, mut zero) = (0usize, 0usize, 0usize);
        for r in finalists
            .iter()
            .filter(|r| r.equations.iter().any(|e| e.variables().contains(v)))
        {
            let eqs = [r.equations[0].clone(), r.equations[1].clone()];
            match perturb_correlation(&train, &eqs, *v, 0.10) {
                Correlation::Positive => pos += 1,
                Correlation::Negative => neg += 1,
                Correlation::Uncorrelated => zero += 1,
            }
        }
        let corr_s = if pos + neg + zero == 0 {
            "-".to_string()
        } else if pos >= neg && pos >= zero {
            format!("correlated ({pos}/{})", pos + neg + zero)
        } else if neg >= pos && neg >= zero {
            format!("inversely corr. ({neg}/{})", pos + neg + zero)
        } else {
            format!("uncorrelated ({zero}/{})", pos + neg + zero)
        };
        println!(
            "{:<6} {:>11.1}% {:>22}",
            vars::NAMES[*v as usize],
            s,
            corr_s
        );
    }

    println!("\n=== Case study: revisions in the best model ===");
    let best = &finalists[0];
    println!(
        "train RMSE {:.3}  test RMSE {:.3}  (chromosome size {})",
        best.train_rmse,
        best.test_rmse,
        best.tree.size()
    );
    let usage = extension_usage(&best.tree, &gmr.grammar.grammar);
    if usage.is_empty() {
        println!("no structural revisions (parameters only)");
    } else {
        for (ext, conn, extd) in usage {
            println!("Ext{ext}: {conn} connector(s), {extd} extender(s)");
        }
    }
    print!("{}", best.render(&gmr.grammar));
    println!("\nderivation structure (Fig. 4 view):");
    print!("{}", best.tree.describe(&gmr.grammar.grammar));
    cli::write_report(&format!("fig9-{}", scale.name), &best.report);
    cli::finish_obsv(&obsv);
}
