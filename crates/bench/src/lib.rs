//! Shared experiment harness for regenerating every table and figure in the
//! paper's evaluation (§IV). Each `src/bin/exp_*.rs` binary drives one
//! experiment; this library holds the common pieces: scale presets, dataset
//! construction, the method roster, and table rendering.
//!
//! Scales: experiments accept `--quick` (seconds; CI smoke), the default
//! (minutes on a laptop), and `--full` (the paper's Appendix B settings —
//! hours). Shapes — method ordering, who wins, roughly by how much — are
//! stable across scales; absolute numbers tighten as the budget grows.

pub mod cli;
pub mod fig10;
pub mod methods;
pub mod table;

use gmr_gp::GpConfig;
use gmr_hydro::{generate, RiverDataset, SyntheticConfig};

/// Budget preset for an experiment run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Preset name, echoed in output.
    pub name: &'static str,
    /// GMR population size.
    pub gmr_pop: usize,
    /// GMR generations.
    pub gmr_gen: usize,
    /// GMR local-search steps.
    pub gmr_ls: usize,
    /// Independent GMR runs.
    pub gmr_runs: usize,
    /// Evaluation budget per calibration method.
    pub calib_budget: usize,
    /// Independent seeds per calibration method (best by test RMSE kept,
    /// matching the paper's "best models" protocol).
    pub calib_seeds: usize,
    /// GGGP population (paper: 1200 to budget-match GMR's local search).
    pub gggp_pop: usize,
    /// GGGP generations.
    pub gggp_gen: usize,
    /// LSTM epochs for the S1 variant.
    pub lstm_epochs_s1: usize,
    /// LSTM epochs for the All variant (9× wider input).
    pub lstm_epochs_all: usize,
    /// Dataset final year (1996..=year; 2008 = the paper's full record).
    pub end_year: i32,
    /// Last training year.
    pub train_end_year: i32,
    /// Evaluation worker threads for the GP engine.
    pub threads: usize,
}

impl Scale {
    /// Seconds-scale smoke preset.
    pub fn quick() -> Scale {
        Scale {
            name: "quick",
            gmr_pop: 24,
            gmr_gen: 8,
            gmr_ls: 1,
            gmr_runs: 2,
            calib_budget: 300,
            calib_seeds: 1,
            gggp_pop: 24,
            gggp_gen: 8,
            lstm_epochs_s1: 4,
            lstm_epochs_all: 2,
            end_year: 1999,
            train_end_year: 1998,
            threads: threads(),
        }
    }

    /// Minutes-scale default preset over the full 13-year record.
    pub fn default_scale() -> Scale {
        Scale {
            name: "default",
            gmr_pop: 120,
            gmr_gen: 60,
            gmr_ls: 3,
            gmr_runs: 6,
            calib_budget: 2500,
            calib_seeds: 3,
            gggp_pop: 240,
            gggp_gen: 40,
            lstm_epochs_s1: 30,
            lstm_epochs_all: 10,
            end_year: 2008,
            train_end_year: 2005,
            threads: threads(),
        }
    }

    /// The paper's Appendix B settings (hours).
    pub fn full() -> Scale {
        Scale {
            name: "full",
            gmr_pop: 200,
            gmr_gen: 100,
            gmr_ls: 5,
            gmr_runs: 60,
            calib_budget: 120_000,
            calib_seeds: 5,
            gggp_pop: 1200,
            gggp_gen: 100,
            lstm_epochs_s1: 1000,
            lstm_epochs_all: 200,
            end_year: 2008,
            train_end_year: 2005,
            threads: threads(),
        }
    }

    /// The GP configuration this scale implies (paper defaults otherwise).
    pub fn gp_config(&self, seed: u64) -> GpConfig {
        GpConfig {
            pop_size: self.gmr_pop,
            max_gen: self.gmr_gen,
            local_search_steps: self.gmr_ls,
            threads: self.threads,
            seed,
            sigma_ramp_last: (self.gmr_gen / 5).max(1),
            ..GpConfig::default()
        }
    }
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The canonical dataset for a scale (fixed seed: every experiment sees the
/// same river).
pub fn dataset(scale: &Scale) -> RiverDataset {
    generate(&SyntheticConfig {
        end_year: scale.end_year,
        train_end_year: scale.train_end_year,
        ..SyntheticConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_budget() {
        let q = Scale::quick();
        let d = Scale::default_scale();
        let f = Scale::full();
        assert!(q.gmr_pop < d.gmr_pop && d.gmr_pop < f.gmr_pop);
        assert!(q.calib_budget < d.calib_budget && d.calib_budget < f.calib_budget);
        assert_eq!(f.gmr_pop, 200);
        assert_eq!(f.gmr_gen, 100);
        assert_eq!(f.gmr_runs, 60);
    }

    #[test]
    fn dataset_respects_scale_years() {
        let ds = dataset(&Scale::quick());
        assert_eq!(ds.days, gmr_hydro::data::days_in_range(1996, 1999));
        assert_eq!(ds.train.len(), gmr_hydro::data::days_in_range(1996, 1998));
    }

    #[test]
    fn gp_config_inherits_paper_defaults() {
        let cfg = Scale::quick().gp_config(1);
        assert_eq!(cfg.tournament, 5);
        assert_eq!(cfg.elite, 2);
        assert!((cfg.p_crossover - 0.3).abs() < 1e-12);
    }
}
