//! Figure 10: mean runtime per individual under each combination of the
//! three §III-D speed-up techniques — Tree Caching (TC), Evaluation
//! Short-circuiting (ES) and Runtime Compilation (RC).
//!
//! Usage: `cargo run --release -p gmr-bench --bin exp_fig10 [--quick|--full]`
//!
//! Methodology: a *fixed* evaluation workload is generated once — a pool of
//! random revisions plus repeated draws from it, mimicking the revisit
//! pattern a GP population produces (elites, replication, cache-able
//! re-evaluations) — and every combination evaluates the identical sequence
//! single-threaded. ES uses the paper's running-RMSE surrogate with
//! threshold 1.0, with the baseline forming naturally as the sequence
//! progresses. Absolute speed-ups depend on workload size (the paper
//! reports 607× at full scale on an 80-core server); the reproduced shape
//! is each technique helping and the three composing.

use gmr_bench::table::render_kv;
use gmr_bench::{cli, dataset};
use gmr_core::{river_priors, Gmr, RiverEvaluator};
use gmr_gp::short_circuit::Extrapolate;
use gmr_gp::{Engine, GpConfig};
use gmr_tag::DerivTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Combo {
    label: &'static str,
    tc: bool,
    es: bool,
    rc: bool,
}

const COMBOS: [Combo; 8] = [
    Combo {
        label: "None",
        tc: false,
        es: false,
        rc: false,
    },
    Combo {
        label: "TC",
        tc: true,
        es: false,
        rc: false,
    },
    Combo {
        label: "ES",
        tc: false,
        es: true,
        rc: false,
    },
    Combo {
        label: "RC",
        tc: false,
        es: false,
        rc: true,
    },
    Combo {
        label: "TC+ES",
        tc: true,
        es: true,
        rc: false,
    },
    Combo {
        label: "TC+RC",
        tc: true,
        es: false,
        rc: true,
    },
    Combo {
        label: "ES+RC",
        tc: false,
        es: true,
        rc: true,
    },
    Combo {
        label: "TC+ES+RC",
        tc: true,
        es: true,
        rc: true,
    },
];

fn main() {
    let (obsv, args) = cli::init(cli::Flags::Scale);
    let scale = args.scale();
    gmr_obsv::info!("scale: {} (use --quick / --full to change)", scale.name);
    let ds = dataset(&scale);
    let gmr = Gmr::new(&ds);
    let evaluator = RiverEvaluator::new(gmr.train.clone());

    // ---- Fixed workload: unique pool + GP-style revisits. ----
    let pool_size = scale.gmr_pop.max(60);
    let workload_len = pool_size * 6;
    let mut rng = StdRng::seed_from_u64(0xF16);
    let pool: Vec<DerivTree> = (0..pool_size)
        .map(|_| gmr.grammar.grammar.random_tree(&mut rng, 2, 50))
        .collect();
    let workload: Vec<&DerivTree> = (0..workload_len)
        .map(|i| {
            if i < pool_size || rng.gen_bool(0.6) {
                // First pass visits everything once; afterwards 60% fresh…
                &pool[i % pool_size]
            } else {
                // …and 40% revisits of an earlier individual (elites,
                // replication, re-converged structures).
                &pool[rng.gen_range(0..pool_size)]
            }
        })
        .collect();
    gmr_obsv::info!(
        "workload: {} evaluations over {} unique individuals, {} fitness cases each",
        workload.len(),
        pool_size,
        gmr.train.num_cases()
    );

    let mut rows: Vec<(String, String)> = Vec::new();
    let mut baseline_per_ind = None;
    println!("\n=== Figure 10: mean runtime per individual ===");
    for combo in &COMBOS {
        let cfg = GpConfig {
            use_cache: combo.tc,
            es_threshold: combo.es.then_some(1.0),
            extrapolate: Extrapolate::RunningRmse,
            use_compiled: combo.rc,
            threads: 1,
            ..GpConfig::default()
        };
        let engine = Engine::new(&gmr.grammar.grammar, &evaluator, river_priors(), cfg);
        let t0 = Instant::now();
        let mut checksum = 0.0f64;
        for tree in &workload {
            let (f, _) = engine.evaluate_tree(tree);
            if f.is_finite() {
                checksum += f.min(1e6);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let per_ind = elapsed / workload.len() as f64;
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
            "{}: {:.3} ms/ind (checksum {:.1})",
            combo.label,
            1e3 * per_ind,
            checksum
        );
    }
    print!("{}", render_kv("speedup combinations", &rows));
    println!(
        "\nNote: absolute speed-ups depend on workload size and hardware; the paper\n\
         reports 607x for TC+ES+RC at full scale on an 80-core server. The shape —\n\
         every technique helps, the three compose — is what this reproduces."
    );
    cli::finish_obsv(&obsv);
}
